package experiments

import (
	"os"
	"path/filepath"
	"reflect"
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
