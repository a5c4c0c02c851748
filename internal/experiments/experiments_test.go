package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func tinyScale() Scale {
	return Scale{Persons: 1200, Days: 8, Ranks: 4, Workers: 2, Seed: 7}
}

func TestAllExperimentsRunAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep is slow")
	}
	out := t.TempDir()
	r, err := NewRunner(tinyScale(), out)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := r.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(IDs()) {
		t.Fatalf("got %d reports for %d experiments", len(reports), len(IDs()))
	}
	for i, rep := range reports {
		if rep.ID != IDs()[i] {
			t.Errorf("report %d has ID %s, want %s", i, rep.ID, IDs()[i])
		}
		if rep.Title == "" || rep.PaperClaim == "" {
			t.Errorf("%s: missing title or claim", rep.ID)
		}
		if len(rep.Rows) == 0 {
			t.Errorf("%s: no measured rows", rep.ID)
		}
		text := rep.Render()
		if !strings.Contains(text, rep.ID) || !strings.Contains(text, "Paper:") {
			t.Errorf("%s: render missing sections", rep.ID)
		}
		for _, f := range rep.Files {
			if st, err := os.Stat(f); err != nil || st.Size() == 0 {
				t.Errorf("%s: artifact %s missing or empty", rep.ID, f)
			}
		}
	}
}

// TestE5RowsPinned pins E5's table at the tiny scale. The rows were
// recorded when E5 still ran its own SIR loop, so they hold the scenario
// kernel to it draw for draw.
func TestE5RowsPinned(t *testing.T) {
	r, err := NewRunner(tinyScale(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run("E5")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"chiSIM collocation (real)", "0.933", "5.00", "298.00"},
		{"configuration model (degree-matched)", "0.082", "18.33", "6.00"},
		{"Erdős–Rényi (size-matched)", "0.007", "0.00", "3.00"},
	}
	if !reflect.DeepEqual(rep.Rows, want) {
		t.Fatalf("E5 rows drifted:\n got %q\nwant %q", rep.Rows, want)
	}
}

// wallClock names, per experiment, the cells that time something: a
// column header, or a row label whose "measured" cell is a wall time.
// TestRowsPinned masks them; every other cell is deterministic.
var wallClock = map[string][]string{
	"T2": {"wall time", "entries/s"},
	"T3": {"synthesis wall time (final week)"},
	"A1": {"measured idle fraction", "synthesis wall"},
	"S1": {"gram+reduce wall", "wall speedup vs 1"},
}

// maskWallClock returns rep's rows with its wallClock cells set to "*",
// failing the test if a named column or row is missing.
func maskWallClock(t *testing.T, rep *Report) [][]string {
	t.Helper()
	rows := make([][]string, len(rep.Rows))
	for i, row := range rep.Rows {
		rows[i] = append([]string(nil), row...)
	}
	measured := slices.Index(rep.Header, "measured")
	for _, name := range wallClock[rep.ID] {
		found := false
		if col := slices.Index(rep.Header, name); col >= 0 {
			for _, row := range rows {
				row[col] = "*"
			}
			found = true
		}
		for _, row := range rows {
			if row[0] == name && measured >= 0 {
				row[measured] = "*"
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no column or row %q to mask", rep.ID, name)
		}
	}
	return rows
}

// TestRowsPinned pins every experiment's table at the tiny scale, wall
// clocks masked (E5 has its own pin, TestE5RowsPinned). The rows were
// recorded before the root benchmarks stopped re-implementing the
// experiments and agreed at GOMAXPROCS 1 and 2; the only changes since
// are the dropped modelled-speedup columns of A1 and S1 and the single
// minus sign of Fit.String.
func TestRowsPinned(t *testing.T) {
	want := map[string][][]string{
		"T1": {
			{"entry size (bytes)", "20", "20"},
			{"activity changes/person/day", "2.67", "≈5"},
			{"log entries", "25616", "—"},
			{"log bytes (all ranks, full run)", "0.49 MB", "—"},
			{"bytes/person/day", "53.41", "100 (5 × 20B)"},
			{"extrapolated: 2.9M persons, 1 week", "1.01 GB", "≈2 GB"},
			{"extrapolated: per process-year (64 procs)", "0.82 GB", "≈1.5 GB"},
		},
		"T2": {
			{"100", "3000", "0.00 MB", "*", "*"},
			{"1000", "300", "0.02 MB", "*", "*"},
			{"10000", "30", "0.19 MB", "*", "*"},
			{"100000", "3", "1.91 MB", "*", "*"},
		},
		"T3": {
			{"vertices (persons with edges)", "1194", "2,927,761"},
			{"edges (collocation pairs)", "36944", "830,328,649"},
			{"edges per person", "30.79", "283.61"},
			{"adjacency memory", "0.42 MB", "≈10 GB (in R)"},
			{"synthesis wall time (final week)", "*", "1–1.5 h at full scale"},
			{"queue: 16×64-proc jobs (min)", "177.00", "faster"},
			{"queue: 1×1024-proc job (min)", "188.00", "slower"},
		},
		"fig1": {
			{"seed person", "22"},
			{"nodes (radius ≤ 2)", "1022"},
			{"edges", "35934"},
			{"edge density", "0.069"},
			{"mean local clustering", "0.409"},
			{"components", "1"},
		},
		"fig2": {
			{"seed person", "199"},
			{"nodes (radius ≤ 2)", "67"},
			{"edges", "480"},
			{"edge density", "0.217"},
			{"mean local clustering", "0.688"},
			{"components", "1"},
		},
		"fig3": {
			{"distinct degrees", "180", "—"},
			{"max degree", "211", "~1e4"},
			{"head ratio max/min count, k=1..7", "4.50", "≈1 (flat)"},
			{"power-law fit", "p(k) ~ k^-0.604 (R²=0.442)", "a = 1.5 overlay"},
			{"truncated fit", "p(k) ~ k^0.074 exp(-k/75.3) (R²=0.604)", "a = 1.25, κ = 1e3 overlay"},
			{"exponential fit", "p(k) ~ exp(-k/82.2) (R²=0.603)", "overlay"},
			{"MLE power-law α (k≥5)", "1.409", "—"},
		},
		"fig4": {
			{"persons with degree ≥ 2", "1173"},
			{"mean clustering", "0.442"},
			{"persons with c = 1", "96"},
			{"fraction with c = 1", "0.082"},
			{"c≈1 bin rank among 20 bins", "5 (count 107)"},
		},
		"fig5": {
			{"0-14", "227", "2968", "57", "0.404", "0.169"},
			{"15-18", "49", "674", "35", "-1.448", "0.275"},
			{"19-44", "517", "8894", "112", "0.617", "0.431"},
			{"45-64", "266", "2650", "66", "0.510", "0.362"},
			{"65+", "141", "552", "22", "0.474", "0.266"},
		},
		"E1": {
			{"chiSIM collocation (real)", "36944", "0.000", "0.435", "0.447"},
			{"Erdős–Rényi G(n,m)", "36944", "0.392", "0.051", "0.002"},
			{"Barabási–Albert", "35535", "0.283", "0.123", "-0.009"},
			{"Watts–Strogatz β=0.1", "36000", "0.474", "0.544", "0.008"},
			{"configuration model (degree-matched)", "34774", "0.042", "0.108", "-0.015"},
		},
		"E2": {
			{"Louvain", "28", "0.644", "0.590", "0.000"},
			{"label propagation", "99", "0.369", "0.551", "0.000"},
		},
		"E3": {
			{"0-14", "-0.818", "10.85", "0.482", "-0.903"},
			{"15-18", "1.922", "+Inf", "0.284", "-5.996"},
			{"19-44", "-0.002", "47.67", "0.540", "0.416"},
			{"45-64", "0.339", "109.53", "0.371", "-0.235"},
			{"65+", "0.202", "26.97", "0.280", "-2.205"},
		},
		"E4": {
			{"Mon", "17481", "128457", "1.13"},
			{"Tue", "17235", "128823", "1.11"},
			{"Wed", "17619", "129684", "1.14"},
			{"Thu", "17511", "128988", "1.13"},
			{"Fri", "7528", "39931", "0.49"},
			{"Sat", "7375", "39914", "0.48"},
			{"Sun", "17494", "128472", "1.13"},
			{"Σ daily (= week?)", "36944", "724269", "equal to weekly: true"},
		},
		"A1": {
			{"cost-balanced (paper)", "1.03", "*", "*"},
			{"contiguous chunks (naive)", "1.86", "*", "*"},
		},
		"A2": {
			{"event-based", "25616", "0.49 MB", "2.67"},
			{"full-state (extrapolated)", "230400", "4.40 MB", "24.00"},
			{"reduction factor", "8.99", "8.99", "—"},
		},
		"A3": {
			{"spatial (paper)", "7644", "0.364"},
			{"random", "10243", "0.488"},
			{"reduction", "1.34", "—"},
		},
		"S1": {
			{"1", "*", "*"},
			{"2", "*", "*"},
			{"4", "*", "*"},
			{"8", "*", "*"},
			{"16", "*", "*"},
		},
	}
	r, err := NewRunner(tinyScale(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range IDs() {
		if id == "E5" {
			continue
		}
		rep, err := r.Run(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := maskWallClock(t, rep); !reflect.DeepEqual(got, want[id]) {
			t.Errorf("%s rows drifted:\n got %q\nwant %q", id, got, want[id])
		}
		if id == "E3" {
			const note = "global truncated fit: p(k) ~ k^0.074 exp(-k/75.3) (R²=0.604)"
			if !slices.Contains(rep.Notes, note) {
				t.Errorf("E3 notes %q lack %q", rep.Notes, note)
			}
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	r, err := NewRunner(tinyScale(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run("nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestSliceBoundsFinalWeek(t *testing.T) {
	s := Scale{Days: 28}
	t0, t1 := s.SliceBounds()
	if t0 != 504 || t1 != 672 {
		t.Fatalf("bounds = [%d,%d), want [504,672)", t0, t1)
	}
	s = Scale{Days: 3}
	t0, t1 = s.SliceBounds()
	if t0 != 0 || t1 != 72 {
		t.Fatalf("short-run bounds = [%d,%d), want [0,72)", t0, t1)
	}
}

func TestReportRenderTable(t *testing.T) {
	rep := &Report{
		ID: "X", Title: "t", PaperClaim: "c",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}},
		Notes:  []string{"note"},
		Files:  []string{filepath.Join("out", "x.svg")},
	}
	text := rep.Render()
	for _, want := range []string{"## X — t", "| a | b |", "| 1 | 2 |", "- note", "x.svg"} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q:\n%s", want, text)
		}
	}
}
