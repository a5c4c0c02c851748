// Command netserve is the long-running query daemon over a synthesized
// collocation network: it loads a .gsnap snapshot (or TSV edge list),
// serves the /v1/* JSON query API, hot-reloads the snapshot on SIGHUP
// or when the file's mtime changes, and drains gracefully on
// SIGTERM/SIGINT.
//
// Usage:
//
//	netsynth -t0 504 -t1 672 -snapshot net.gsnap logs/rank*.h5l
//	netserve -snapshot net.gsnap -addr :8355
//	curl localhost:8355/v1/stats
//	curl localhost:8355/v1/ego/123?radius=2
//
// Endpoints: /v1/stats, /v1/degree/{id}, /v1/neighbors/{id},
// /v1/ego/{id}?radius=k (k in [0,6], default 2),
// /v1/path?from=&to=[&weighted=0|1], /v1/degree-dist,
// /v1/clustering/{id}. Ego and path are computed per request on a
// pooled traversal scratch; no response is cached.
//
// Tooling modes:
//
//	netserve -convert network.tsv -snapshot net.gsnap   # TSV → indexed v2 snapshot
//	netserve -reindex net.gsnap                         # upgrade v1 → v2 in place (atomic)
//	netserve -get http://host:8355/v1/stats             # curl-free fetch
//
// Converted and reindexed snapshots carry the precomputed v2 index
// sections (degree, strength, clustering, top-32 neighbors, degree
// histogram, global stats), which the daemon serves as O(1) mmap reads.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cmdrun"
	"repro/internal/gstore"
	"repro/internal/netserve"
	"repro/internal/supervise"

	// Register every pipeline stage's telemetry series so the first
	// /metrics scrape shows the full inventory.
	_ "repro"
)

func main() {
	snapshot := flag.String("snapshot", "", "snapshot (.gsnap) or TSV edge list to serve")
	addr := flag.String("addr", ":8355", "HTTP listen address")
	addrFile := flag.String("addr-file", "", "write the bound listen address to this file (for :0 ephemeral ports)")
	workers := flag.Int("workers", 0, "max concurrent query evaluations (0 = 2×CPUs)")
	reqTimeout := flag.Duration("request-timeout", 5*time.Second, "per-request deadline")
	watch := flag.Duration("watch", 2*time.Second, "snapshot mtime poll interval for hot reload (0 disables)")
	tel := cmdrun.TelemetryFlags("netserve", false)
	accessLog := flag.String("access-log", "", "append one structured JSON line per request to this file ('-' = stderr; empty disables)")
	slowMs := flag.Int("slow-ms", 500, "flag access-log requests at or above this duration with \"slow\":true")

	convert := flag.String("convert", "", "convert this TSV edge list (or snapshot) to an indexed -snapshot and exit")
	reindex := flag.String("reindex", "", "rewrite this snapshot in place as v2 with baked index sections and exit")
	get := flag.String("get", "", "fetch this URL, print the body, and exit (curl-free smoke tests)")
	post := flag.String("post", "", "POST -body to this URL, print the body, and exit (curl-free smoke tests)")
	postBody := flag.String("body", "", "request body file for -post ('-' = stdin)")
	flag.Parse()

	switch {
	case *get != "":
		cmdrun.Exit("netserve", fetch(http.MethodGet, *get, ""))
	case *post != "":
		cmdrun.Exit("netserve", fetch(http.MethodPost, *post, *postBody))
	case *convert != "":
		cmdrun.Exit("netserve", runConvert(*convert, *snapshot))
	case *reindex != "":
		cmdrun.Exit("netserve", runReindex(*reindex))
	}
	cmdrun.Main("netserve", func(ctx context.Context) error {
		accessW, err := openAccessLog(*accessLog)
		if err != nil {
			return err
		}
		return runServe(ctx, *snapshot, *addr, *addrFile, tel, netserve.Options{
			Workers:        *workers,
			RequestTimeout: *reqTimeout,
			WatchInterval:  *watch,
			AccessLog:      accessW,
			SlowThreshold:  time.Duration(*slowMs) * time.Millisecond,
		})
	})
}

// openAccessLog resolves the -access-log flag: empty disables, "-"
// logs to stderr, anything else appends to that file.
func openAccessLog(path string) (io.Writer, error) {
	switch path {
	case "":
		return nil, nil
	case "-":
		return os.Stderr, nil
	}
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// runServe is the daemon mode: it serves until ctx is canceled, then
// drains in-flight requests.
func runServe(ctx context.Context, snapshot, addr, addrFile string, tel *cmdrun.Telemetry, opts netserve.Options) error {
	if snapshot == "" {
		return errors.New("no -snapshot given; usage: netserve -snapshot net.gsnap -addr :8355")
	}
	stopTel, err := tel.Start()
	if err != nil {
		return err
	}
	defer stopTel()

	start := time.Now()
	srv, err := netserve.New(snapshot, opts)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("loaded %s in %s\n", snapshot, time.Since(start).Round(time.Millisecond))

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if addrFile != "" {
		if err := supervise.WriteAddrFile(addrFile, ln.Addr().String()); err != nil {
			ln.Close()
			return err
		}
	}
	g, gen, release := srv.Acquire()
	fmt.Printf("serving %d vertices / %d edges on http://%s (generation %d)\n",
		g.NumVertices(), g.NumEdges(), ln.Addr(), gen)
	release()

	// SIGHUP → hot reload.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if err := srv.Reload(); err != nil {
				fmt.Fprintln(os.Stderr, "netserve: reload failed, keeping current generation:", err)
				continue
			}
			fmt.Printf("reloaded snapshot (generation %d)\n", srv.Generation())
		}
	}()

	// HardenedHandler adds the http.TimeoutHandler backstop for wedged
	// handlers and the Retry-After hint on 503 saturation responses.
	httpSrv := &http.Server{Handler: srv.HardenedHandler(), ReadHeaderTimeout: 5 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Println("draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		return err
	}
	fmt.Println("drained; bye")
	return nil
}

// runConvert rewrites an edge list (or snapshot) as an indexed v2
// .gsnap snapshot.
func runConvert(in, out string) error {
	if out == "" {
		return errors.New("-convert requires -snapshot OUT.gsnap")
	}
	snap, err := gstore.LoadGraphFile(in, 0)
	if err != nil {
		return err
	}
	defer snap.Close()
	g := snap.Graph()
	if err := gstore.WriteFileIndexed(out, g, gstore.IndexOptions{}); err != nil {
		return err
	}
	fi, err := os.Stat(out)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d vertices, %d edges → %s (%d bytes, v%d + index)\n",
		in, g.NumVertices(), g.NumEdges(), out, fi.Size(), gstore.Version)
	return nil
}

// runReindex upgrades a snapshot in place to v2 with baked index
// sections. The write goes through the store's temp+fsync+rename path,
// so a crash mid-upgrade leaves the original file untouched, and a
// daemon watching the file mtime hot-reloads the indexed version. The
// input must be a snapshot: a TSV edge list fails with ErrBadMagic and
// is left as it is (-convert turns one into a snapshot).
func runReindex(path string) error {
	snap, err := gstore.Open(path)
	if err != nil {
		return err
	}
	before := snap.SizeBytes()
	fromVersion := snap.Version()
	sections := snap.Index().Sections()
	err = gstore.WriteFileIndexed(path, snap.Graph(), gstore.IndexOptions{})
	snap.Close()
	if err != nil {
		return err
	}
	re, err := gstore.Open(path)
	if err != nil {
		return fmt.Errorf("reindexed snapshot failed verification: %w", err)
	}
	defer re.Close()
	fmt.Printf("%s: v%d (%d sections, %d bytes) → v%d (%d sections, %d bytes)\n",
		path, fromVersion, len(sections), before,
		re.Version(), len(re.Index().Sections()), re.SizeBytes())
	return nil
}

// fetch is a dependency-free HTTP client for smoke tests on boxes
// without curl: a GET, or a POST whose body comes from bodyPath (a
// file, "-" for stdin, "" for none). The response body goes to stdout;
// a non-200 status is an error.
func fetch(method, url, bodyPath string) error {
	var body io.Reader = strings.NewReader("")
	switch bodyPath {
	case "":
	case "-":
		body = os.Stdin
	default:
		f, err := os.Open(bodyPath)
		if err != nil {
			return err
		}
		defer f.Close()
		body = f
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return err
	}
	timeout := 10 * time.Second
	if method == http.MethodPost {
		req.Header.Set("Content-Type", "application/json")
		timeout = 10 * time.Minute
	}
	resp, err := (&http.Client{Timeout: timeout}).Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(os.Stdout, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %s", method, url, resp.Status)
	}
	return nil
}
