package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// This file defines the machine-readable run report: the single JSON
// document a run writes with -report out.json and `netstat report`
// renders as per-stage / per-rank timing tables. The report is the
// paper's Fig. 6/7 load-balancing analysis in file form — per-rank
// busy/comm/idle attribution plus the full metric snapshot.

// StageReport attributes wall clock (and optionally volume) to one
// pipeline stage.
type StageReport struct {
	Name   string `json:"name"`
	WallNs int64  `json:"wall_ns"`
	Count  int64  `json:"count,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
}

// RankReport is one rank's roll-up: where its wall clock went
// (busy/comm/idle), what it processed, and what faults it saw.
// SynthesizeDistributed gathers one of these per rank over the
// transport; single-process runs emit exactly one.
type RankReport struct {
	Rank   int   `json:"rank"`
	WallNs int64 `json:"wall_ns"`
	BusyNs int64 `json:"busy_ns"`
	CommNs int64 `json:"comm_ns"`
	IdleNs int64 `json:"idle_ns"`

	Entries   int64 `json:"entries"`
	Places    int64 `json:"places,omitempty"`
	WorkUnits int64 `json:"work_units,omitempty"`
	Splits    int64 `json:"splits,omitempty"`

	FaultsInjected  int64 `json:"faults_injected,omitempty"`
	FaultsRecovered int64 `json:"faults_recovered,omitempty"`

	// Spans are the rank's completed local span subtrees — shipped over
	// the same best-effort report gather and grafted under the
	// coordinator's root span.
	Spans []SpanReport `json:"spans,omitempty"`
}

// EncodeRank serializes a RankReport for a transport gather.
func EncodeRank(r RankReport) ([]byte, error) { return json.Marshal(r) }

// DecodeRank reverses EncodeRank.
func DecodeRank(b []byte) (RankReport, error) {
	var r RankReport
	if err := json.Unmarshal(b, &r); err != nil {
		return RankReport{}, fmt.Errorf("telemetry: rank report: %w", err)
	}
	return r, nil
}

// BusyImbalance returns max(busy)/mean(busy) across ranks — the Fig.
// 6/7 load-balance figure of merit. It returns 0 when there is nothing
// to measure (no ranks, or no busy time anywhere).
func BusyImbalance(ranks []RankReport) float64 {
	var max, sum int64
	for _, r := range ranks {
		sum += r.BusyNs
		if r.BusyNs > max {
			max = r.BusyNs
		}
	}
	if len(ranks) == 0 || sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(ranks))
	return float64(max) / mean
}

// SupervisionRank is one supervised rank process's lifecycle roll-up.
type SupervisionRank struct {
	Rank int `json:"rank"`
	// Degraded marks a synthesis worker that failed; the run continued
	// without it (the survivors re-striped its files).
	Degraded bool `json:"degraded,omitempty"`
	// PeakRSSKiB is the maximum resident set size across the rank's
	// processes (one per gang attempt), in KiB.
	PeakRSSKiB int64 `json:"peak_rss_kib,omitempty"`
	// ExitCode is the last process's exit code.
	ExitCode int `json:"exit_code"`
}

// SupervisionReport summarizes what a supervisor (cmd/netlaunch) did to
// keep a multi-process run alive: gang relaunches, and which ranks the
// run gave up on.
type SupervisionReport struct {
	// Mode is the supervision strategy: "gang" (simulation phase,
	// relaunch everyone with -resume) or "per-rank" (synthesis phase,
	// failed workers degrade and the survivors re-stripe).
	Mode string `json:"mode"`
	// GangRestarts counts whole-gang relaunches (gang mode only).
	GangRestarts int `json:"gang_restarts,omitempty"`
	// WallNs is the phase's wall clock under supervision.
	WallNs int64 `json:"wall_ns"`
	// Ranks holds the per-rank lifecycle roll-ups.
	Ranks []SupervisionRank `json:"ranks,omitempty"`
}

// Report is the machine-readable run report.
type Report struct {
	// Command names the producing tool ("netsynth", "chisim", ...).
	Command string `json:"command"`
	// CreatedUnixNs is the report creation time (UnixNano; an integer
	// so the document round-trips exactly).
	CreatedUnixNs int64 `json:"created_unix_ns"`
	// Stages attributes wall clock per pipeline stage.
	Stages []StageReport `json:"stages,omitempty"`
	// Ranks holds the per-rank roll-ups.
	Ranks []RankReport `json:"ranks,omitempty"`
	// Supervision, when present, summarizes the process supervision a
	// launcher applied to the run (gang relaunches, degraded ranks).
	Supervision []SupervisionReport `json:"supervision,omitempty"`
	// Metrics is the full registry snapshot at report time.
	Metrics Snapshot `json:"metrics"`
	// Spans are the retained completed root span trees.
	Spans []SpanReport `json:"spans,omitempty"`
	// TraceID names the distributed trace this report's span trees
	// stitch into, when the run produced one (FormatID hex).
	TraceID string `json:"trace_id,omitempty"`
}

// Report builds a run report from the registry's current state.
// Callers append Stages and Ranks before writing it out.
func (r *Registry) Report(command string) *Report {
	return &Report{
		Command:       command,
		CreatedUnixNs: time.Now().UnixNano(),
		Metrics:       r.Snapshot(),
		Spans:         r.RootSpans(),
	}
}

// WriteFile writes the report as indented JSON.
func (rep *Report) WriteFile(path string) error {
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// ReadReportFile reads a report written by WriteFile.
func ReadReportFile(path string) (*Report, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(blob, &rep); err != nil {
		return nil, fmt.Errorf("telemetry: %s: %w", path, err)
	}
	return &rep, nil
}

// fmtNs renders a nanosecond quantity as a rounded duration.
func fmtNs(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.String()
	}
}

// Render writes the human-readable per-stage / per-rank timing tables —
// the `netstat report` view of the document.
func (rep *Report) Render(w io.Writer) error {
	fmt.Fprintf(w, "run report: %s (created %s)\n",
		rep.Command, time.Unix(0, rep.CreatedUnixNs).UTC().Format(time.RFC3339))

	if len(rep.Stages) > 0 {
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "\nstage\twall\tcount\tbytes\n")
		var total int64
		for _, st := range rep.Stages {
			total += st.WallNs
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", st.Name, fmtNs(st.WallNs), orDash(st.Count), orDash(st.Bytes))
		}
		fmt.Fprintf(tw, "total\t%s\t\t\n", fmtNs(total))
		if err := tw.Flush(); err != nil {
			return err
		}
	}

	if len(rep.Ranks) > 0 {
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "\nrank\twall\tbusy\tcomm\tidle\tentries\tplaces\tunits\tfaults inj/rec\n")
		for _, r := range rep.Ranks {
			fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%s\t%d\t%s\t%s\t%d/%d\n",
				r.Rank, fmtNs(r.WallNs), fmtNs(r.BusyNs), fmtNs(r.CommNs), fmtNs(r.IdleNs),
				r.Entries, orDash(r.Places), orDash(r.WorkUnits),
				r.FaultsInjected, r.FaultsRecovered)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
		fmt.Fprintf(w, "busy imbalance (max/mean): %.2f\n", BusyImbalance(rep.Ranks))
	}

	for _, sup := range rep.Supervision {
		fmt.Fprintf(w, "\nsupervision (%s): wall %s", sup.Mode, fmtNs(sup.WallNs))
		if sup.GangRestarts > 0 {
			fmt.Fprintf(w, ", %d gang restart(s)", sup.GangRestarts)
		}
		fmt.Fprintln(w)
		if len(sup.Ranks) > 0 {
			tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
			fmt.Fprintf(tw, "rank\tdegraded\tpeak rss\texit\n")
			for _, r := range sup.Ranks {
				deg := "-"
				if r.Degraded {
					deg = "yes"
				}
				fmt.Fprintf(tw, "%d\t%s\t%s\t%d\n",
					r.Rank, deg, fmtKiB(r.PeakRSSKiB), r.ExitCode)
			}
			if err := tw.Flush(); err != nil {
				return err
			}
		}
	}

	if len(rep.Metrics.Histograms) > 0 {
		names := sortedKeys(rep.Metrics.Histograms)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintf(tw, "\ntiming series\tcount\ttotal\tp50\tp95\tp99\n")
		for _, name := range names {
			h := rep.Metrics.Histograms[name]
			if h.Count == 0 {
				continue
			}
			fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\t%s\n",
				name, h.Count, fmtNs(h.SumNs), fmtNs(h.P50Ns), fmtNs(h.P95Ns), fmtNs(h.P99Ns))
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}

	if len(rep.Metrics.Counters) > 0 {
		type kv struct {
			k string
			v int64
		}
		var nonzero []kv
		for k, v := range rep.Metrics.Counters {
			if v != 0 {
				nonzero = append(nonzero, kv{k, v})
			}
		}
		sort.Slice(nonzero, func(i, j int) bool { return nonzero[i].k < nonzero[j].k })
		if len(nonzero) > 0 {
			tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
			fmt.Fprintf(tw, "\ncounter\tvalue\n")
			for _, c := range nonzero {
				fmt.Fprintf(tw, "%s\t%d\n", c.k, c.v)
			}
			if err := tw.Flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// AttachRemoteSpans grafts kids (span subtrees shipped from other
// processes) under the retained root span whose span id matches
// rootSpanID. If no retained root matches, a synthetic root is
// appended so the spans are never dropped.
func (rep *Report) AttachRemoteSpans(rootSpanID string, kids []SpanReport) {
	if len(kids) == 0 {
		return
	}
	for i := range rep.Spans {
		if rep.Spans[i].SpanID == rootSpanID {
			rep.Spans[i].Children = append(rep.Spans[i].Children, kids...)
			return
		}
	}
	rep.Spans = append(rep.Spans, SpanReport{
		Name:     "remote",
		SpanID:   rootSpanID,
		Children: kids,
	})
}

// ---------------------------------------------------------------------------
// Trace rendering (`netstat trace`, flight recorder)

// renderSpanTree writes one span subtree as an indented tree. Child
// ranks inherit the parent's unless the report carries its own — a
// grafted remote subtree announces its rank once at its root.
func renderSpanTree(w io.Writer, sp SpanReport, indent string, parentRank int) {
	rank := sp.Rank
	if rank == 0 && parentRank != 0 {
		rank = parentRank
	}
	fmt.Fprintf(w, "%s%s  %s", indent, sp.Name, fmtNs(sp.WallNs))
	if rank != parentRank || indent == "" {
		fmt.Fprintf(w, "  [rank %d]", rank)
	}
	if sp.Bytes > 0 {
		fmt.Fprintf(w, "  %d B", sp.Bytes)
	}
	if sp.Count > 0 {
		fmt.Fprintf(w, "  n=%d", sp.Count)
	}
	fmt.Fprintln(w)
	for _, c := range sp.Children {
		renderSpanTree(w, c, indent+"  ", rank)
	}
}

// collectRanks folds the distinct ranks of a span subtree into set.
func collectRanks(sp SpanReport, inherited int, set map[int]bool) {
	rank := sp.Rank
	if rank == 0 && inherited != 0 {
		rank = inherited
	}
	set[rank] = true
	for _, c := range sp.Children {
		collectRanks(c, rank, set)
	}
}

// RenderTrace writes the report's distributed trace view: every
// retained root span tree that belongs to rep.TraceID (all of them
// when the report predates tracing), with per-rank annotations and a
// summary line counting spans and distinct ranks — the `netstat trace`
// output.
func (rep *Report) RenderTrace(w io.Writer) error {
	trees := rep.Spans
	if rep.TraceID != "" {
		trees = nil
		for _, sp := range rep.Spans {
			if sp.TraceID == rep.TraceID || sp.TraceID == "" {
				trees = append(trees, sp)
			}
		}
	}
	if len(trees) == 0 {
		fmt.Fprintln(w, "no span trees in report")
		return nil
	}
	if rep.TraceID != "" {
		fmt.Fprintf(w, "trace %s (%s)\n", rep.TraceID, rep.Command)
	} else {
		fmt.Fprintf(w, "trace (%s, untraced report)\n", rep.Command)
	}
	ranks := map[int]bool{}
	spans := 0
	var count func(sp SpanReport)
	count = func(sp SpanReport) {
		spans++
		for _, c := range sp.Children {
			count(c)
		}
	}
	for _, sp := range trees {
		renderSpanTree(w, sp, "", 0)
		collectRanks(sp, 0, ranks)
		count(sp)
	}
	rankList := make([]int, 0, len(ranks))
	for r := range ranks {
		rankList = append(rankList, r)
	}
	sort.Ints(rankList)
	parts := make([]string, len(rankList))
	for i, r := range rankList {
		parts[i] = fmt.Sprintf("%d", r)
	}
	fmt.Fprintf(w, "%d span(s) across %d rank(s): %s\n",
		spans, len(rankList), strings.Join(parts, ","))
	return nil
}

func orDash(v int64) string {
	if v == 0 {
		return "-"
	}
	return fmt.Sprintf("%d", v)
}

// fmtKiB renders a KiB quantity at MiB granularity when large.
func fmtKiB(kib int64) string {
	if kib <= 0 {
		return "-"
	}
	if kib >= 1<<10 {
		return fmt.Sprintf("%.1f MiB", float64(kib)/(1<<10))
	}
	return fmt.Sprintf("%d KiB", kib)
}
