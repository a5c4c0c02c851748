package main

// The cluster observability plane: netlaunch is the only process that
// knows every rank of a run, so it is the natural single scrape target.
// With -observe-addr set, each supervised rank gets a telemetry server
// on an ephemeral port plus an address file; the observer polls those
// files, scrapes each rank's /snapshot (the registry's serializable
// form), and serves:
//
//   - /metrics  — every rank's series merged into one Prometheus
//     exposition, each sample labeled rank="N" (plus the launcher's own
//     registry as rank="launcher"). A dead or restarting rank keeps
//     serving its last good snapshot, marked stale via
//     netlaunch_scrape_age_seconds.
//   - /cluster  — a JSON roll-up: current phase, per-rank scrape
//     health, the supervision reports (gang relaunches, degraded
//     ranks), and — once the synthesis report lands — per-rank
//     busy/comm/idle walls with min/max/mean busy and the Fig.-style
//     imbalance ratio.
//
// Scrapes are best-effort by design: a rank between death and restart
// refuses connections, and a rank that has not bound yet has no
// address file. Neither is an error worth failing the run over.

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/supervise"
	"repro/internal/telemetry"
)

var (
	mScrapes      = telemetry.C("netlaunch_scrape_total")
	mScrapeErrors = telemetry.C("netlaunch_scrape_errors_total")
)

// rankScrape is the last scrape outcome for one rank.
type rankScrape struct {
	Snap telemetry.Snapshot
	At   time.Time // when Snap was obtained; zero = never scraped
	Err  string    // last failure, "" when the last scrape succeeded
}

// observer runs the scrape loop and the aggregated HTTP endpoints.
type observer struct {
	workdir  string
	ranks    int
	interval time.Duration
	client   *http.Client

	mu          sync.Mutex
	phase       string
	scrapes     []rankScrape
	supervision []telemetry.SupervisionReport
	synthRep    *telemetry.Report

	srv  *http.Server
	ln   net.Listener
	stop chan struct{}
	done chan struct{}
}

func newObserver(workdir string, ranks int, interval time.Duration) *observer {
	if interval <= 0 {
		interval = time.Second
	}
	return &observer{
		workdir:  workdir,
		ranks:    ranks,
		interval: interval,
		client:   &http.Client{Timeout: 2 * time.Second},
		scrapes:  make([]rankScrape, ranks),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// telemetryAddrFile is the per-rank address file the observer polls.
// Both phases use the same name: the file always points at the rank's
// most recently bound telemetry server (restarts rewrite it), and a
// briefly stale address just yields one failed scrape.
func (o *observer) telemetryAddrFile(rank int) string {
	return fmt.Sprintf("%s/telemetry-rank%d.addr", o.workdir, rank)
}

// start binds the observe endpoint and launches the scrape loop.
func (o *observer) start(addr, addrFile string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("observe listen %s: %w", addr, err)
	}
	if addrFile != "" {
		if err := supervise.WriteAddrFile(addrFile, ln.Addr().String()); err != nil {
			ln.Close()
			return err
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", o.handleMetrics)
	mux.HandleFunc("/cluster", o.handleCluster)
	o.ln = ln
	o.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go o.srv.Serve(ln)
	go o.scrapeLoop()
	fmt.Printf("netlaunch: observe plane on http://%s/metrics (cluster summary at /cluster)\n", ln.Addr())
	return nil
}

// close stops the scrape loop and the HTTP server.
func (o *observer) close() {
	close(o.stop)
	<-o.done
	o.srv.Close()
}

func (o *observer) setPhase(phase string) {
	o.mu.Lock()
	o.phase = phase
	o.mu.Unlock()
}

func (o *observer) addSupervision(rep telemetry.SupervisionReport) {
	o.mu.Lock()
	o.supervision = append(o.supervision, rep)
	o.mu.Unlock()
}

func (o *observer) setSynthReport(rep *telemetry.Report) {
	o.mu.Lock()
	o.synthRep = rep
	o.mu.Unlock()
}

func (o *observer) scrapeLoop() {
	defer close(o.done)
	t := time.NewTicker(o.interval)
	defer t.Stop()
	o.scrapeAll()
	for {
		select {
		case <-o.stop:
			return
		case <-t.C:
			o.scrapeAll()
		}
	}
}

// scrapeAll fetches every rank's /snapshot, keeping the previous good
// snapshot on failure so /metrics never loses a rank that merely died
// between restarts.
func (o *observer) scrapeAll() {
	for r := 0; r < o.ranks; r++ {
		snap, err := o.scrapeRank(r)
		o.mu.Lock()
		if err != nil {
			o.scrapes[r].Err = err.Error()
		} else {
			o.scrapes[r] = rankScrape{Snap: snap, At: time.Now()}
		}
		o.mu.Unlock()
	}
}

func (o *observer) scrapeRank(rank int) (telemetry.Snapshot, error) {
	mScrapes.Inc()
	blob, err := os.ReadFile(o.telemetryAddrFile(rank))
	if err != nil {
		mScrapeErrors.Inc()
		return telemetry.Snapshot{}, fmt.Errorf("no address yet: %w", err)
	}
	addr := strings.TrimSpace(string(blob))
	resp, err := o.client.Get("http://" + addr + "/snapshot")
	if err != nil {
		mScrapeErrors.Inc()
		return telemetry.Snapshot{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		mScrapeErrors.Inc()
		return telemetry.Snapshot{}, fmt.Errorf("scrape rank %d: %s", rank, resp.Status)
	}
	var snap telemetry.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		mScrapeErrors.Inc()
		return telemetry.Snapshot{}, fmt.Errorf("scrape rank %d: %w", rank, err)
	}
	return snap, nil
}

// handleMetrics serves the merged, per-rank-labeled exposition: the
// union of every scraped rank's series plus the launcher's own
// registry, with per-rank scrape ages appended so staleness is visible
// on the same endpoint.
func (o *observer) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	o.mu.Lock()
	snaps := make([]telemetry.LabeledSnapshot, 0, o.ranks+1)
	ages := make([]float64, o.ranks)
	for r := 0; r < o.ranks; r++ {
		ages[r] = -1
		if !o.scrapes[r].At.IsZero() {
			ages[r] = time.Since(o.scrapes[r].At).Seconds()
			snaps = append(snaps, telemetry.LabeledSnapshot{
				Labels: []telemetry.Label{{Name: "rank", Value: strconv.Itoa(r)}},
				Snap:   o.scrapes[r].Snap,
			})
		}
	}
	o.mu.Unlock()
	snaps = append(snaps, telemetry.LabeledSnapshot{
		Labels: []telemetry.Label{{Name: "rank", Value: "launcher"}},
		Snap:   telemetry.Default.Snapshot(),
	})
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	telemetry.WriteClusterPrometheus(w, snaps)
	fmt.Fprintf(w, "# TYPE netlaunch_scrape_age_seconds gauge\n")
	for r, age := range ages {
		if age >= 0 {
			fmt.Fprintf(w, "netlaunch_scrape_age_seconds{rank=%q} %g\n", strconv.Itoa(r), age)
		}
	}
}

// clusterRank is one rank's row in the /cluster summary.
type clusterRank struct {
	Rank      int     `json:"rank"`
	Scraped   bool    `json:"scraped"`
	AgeS      float64 `json:"age_s,omitempty"`
	LastError string  `json:"last_error,omitempty"`
}

// clusterSynthesis is the post-synthesis roll-up of the /cluster
// summary, built from the rank-0 run report.
type clusterSynthesis struct {
	TraceID       string                 `json:"trace_id,omitempty"`
	Ranks         []telemetry.RankReport `json:"ranks"`
	BusyMinNs     int64                  `json:"busy_min_ns"`
	BusyMaxNs     int64                  `json:"busy_max_ns"`
	BusyMeanNs    int64                  `json:"busy_mean_ns"`
	BusyImbalance float64                `json:"busy_imbalance"`
}

// clusterSummary is the /cluster JSON document.
type clusterSummary struct {
	Phase       string                        `json:"phase"`
	Ranks       []clusterRank                 `json:"ranks"`
	Supervision []telemetry.SupervisionReport `json:"supervision,omitempty"`
	Synthesis   *clusterSynthesis             `json:"synthesis,omitempty"`
}

func (o *observer) handleCluster(w http.ResponseWriter, _ *http.Request) {
	o.mu.Lock()
	sum := clusterSummary{
		Phase:       o.phase,
		Ranks:       make([]clusterRank, o.ranks),
		Supervision: o.supervision,
	}
	for r := 0; r < o.ranks; r++ {
		cr := clusterRank{Rank: r, LastError: o.scrapes[r].Err}
		if !o.scrapes[r].At.IsZero() {
			cr.Scraped = true
			cr.AgeS = time.Since(o.scrapes[r].At).Seconds()
		}
		sum.Ranks[r] = cr
	}
	if o.synthRep != nil && len(o.synthRep.Ranks) > 0 {
		syn := &clusterSynthesis{TraceID: o.synthRep.TraceID, Ranks: o.synthRep.Ranks}
		var sumBusy int64
		syn.BusyMinNs = o.synthRep.Ranks[0].BusyNs
		for _, rr := range o.synthRep.Ranks {
			sumBusy += rr.BusyNs
			if rr.BusyNs < syn.BusyMinNs {
				syn.BusyMinNs = rr.BusyNs
			}
			if rr.BusyNs > syn.BusyMaxNs {
				syn.BusyMaxNs = rr.BusyNs
			}
		}
		syn.BusyMeanNs = sumBusy / int64(len(o.synthRep.Ranks))
		syn.BusyImbalance = telemetry.BusyImbalance(o.synthRep.Ranks)
		sum.Synthesis = syn
	}
	o.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(sum)
}
