// Package cmdrun is the runtime the repository's binaries share: how a
// command stops on a signal and which code it exits with, its telemetry
// flags and server, how it joins an mpinet cluster, and how it writes a
// synthesized network.
//
// Exit codes are the contract a supervisor (cmd/netlaunch) reads: 0 is
// success, supervise.ExitCanceled (2) is work that stopped because the
// first SIGINT/SIGTERM canceled its context — a deliberate drain, never
// restarted — and 1 is any other failure. A second signal exits 1 at
// once: whoever sent it has decided the drain is not worth waiting for.
package cmdrun

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/graph"
	"repro/internal/gstore"
	"repro/internal/mpinet"
	"repro/internal/sparse"
	"repro/internal/supervise"
	"repro/internal/telemetry"
)

// Main runs fn under a context that the first SIGINT or SIGTERM
// cancels, then exits with Code once fn has returned and its defers
// have run. A second signal exits 1 at once. Only work that honours ctx
// belongs on Main; a one-shot command that ignores it calls Exit, so a
// Ctrl-C keeps its default effect.
func Main(tool string, fn func(ctx context.Context) error) {
	ctx, cancel := context.WithCancel(context.Background())
	// Room for the two signals acted on, so neither is dropped while
	// the goroutine is still printing. It ends with the process.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigs
		fmt.Fprintf(os.Stderr, "%s: %v: stopping (repeat to kill)\n", tool, s)
		cancel()
		s = <-sigs
		fmt.Fprintf(os.Stderr, "%s: %v again: killed\n", tool, s)
		os.Exit(supervise.ExitFailure)
	}()
	Exit(tool, fn(ctx))
}

// Exit exits with the code Code gives err, printing its line on stderr.
func Exit(tool string, err error) {
	os.Exit(Code(os.Stderr, tool, err))
}

// Code maps a command's result to its exit code and writes the matching
// line to w: nil is 0 and silent, an error wrapping context.Canceled is
// supervise.ExitCanceled ("tool: interrupted: err"), and any other error
// is 1 ("tool: err").
func Code(w io.Writer, tool string, err error) int {
	switch {
	case err == nil:
		return supervise.ExitOK
	case errors.Is(err, context.Canceled):
		fmt.Fprintf(w, "%s: interrupted: %v\n", tool, err)
		return supervise.ExitCanceled
	}
	fmt.Fprintf(w, "%s: %v\n", tool, err)
	return supervise.ExitFailure
}

// Telemetry is the telemetry flag block of a long-running binary.
type Telemetry struct {
	tool     string
	addr     string // -telemetry-addr: serve the registry here
	addrFile string // -telemetry-addr-file: publish the bound address here
	Report   string // -report: write the JSON run report here
}

// TelemetryFlags registers -telemetry-addr on the command line and, for
// a binary that runs as a supervised rank, -telemetry-addr-file and
// -report as well.
func TelemetryFlags(tool string, rank bool) *Telemetry {
	return telemetryFlags(flag.CommandLine, tool, rank)
}

func telemetryFlags(fs *flag.FlagSet, tool string, rank bool) *Telemetry {
	t := &Telemetry{tool: tool}
	fs.StringVar(&t.addr, "telemetry-addr", "", "serve /metrics (Prometheus), /snapshot, /debug/vars and /debug/pprof on this address and enable telemetry")
	if rank {
		fs.StringVar(&t.addrFile, "telemetry-addr-file", "", "publish the telemetry server's bound address to this file (for a supervisor's scraper)")
		fs.StringVar(&t.Report, "report", "", "write a JSON run report to this path (render it with `netstat report` or `netstat trace`)")
	}
	return t
}

// Start installs the SIGQUIT flight recorder, enables telemetry when a
// report is asked for, and serves the registry when -telemetry-addr is
// set. The returned stop closes the server.
func (t *Telemetry) Start() (stop func(), err error) {
	telemetry.InstallFlightRecorder(t.tool, os.Stderr)
	if t.Report != "" {
		telemetry.SetEnabled(true)
	}
	if t.addr == "" {
		return func() {}, nil
	}
	srv, err := telemetry.Default.Serve(t.addr)
	if err != nil {
		return nil, err
	}
	fmt.Printf("telemetry: http://%s/metrics\n", srv.Addr())
	if t.addrFile != "" {
		if err := supervise.WriteAddrFile(t.addrFile, srv.Addr()); err != nil {
			srv.Close()
			return nil, err
		}
	}
	return func() { srv.Close() }, nil
}

// WriteReport writes rep to the -report path, if one was given.
func (t *Telemetry) WriteReport(rep *telemetry.Report) error {
	if t.Report == "" {
		return nil
	}
	if err := rep.WriteFile(t.Report); err != nil {
		return err
	}
	fmt.Printf("run report → %s\n", t.Report)
	return nil
}

// Dist is the flag block that makes a binary one rank of an mpinet
// cluster: rank 0 hosts the coordinator, every other rank joins it by
// address or through the file rank 0 publishes its address to.
type Dist struct {
	host, join, addrFile string
	rank                 int
	roundTimeout         time.Duration
}

// DistFlags registers the -dist-* flags on the command line.
func DistFlags() *Dist { return distFlags(flag.CommandLine) }

func distFlags(fs *flag.FlagSet) *Dist {
	d := &Dist{}
	fs.StringVar(&d.host, "dist-host", "", "host the TCP coordinator on this address (this process becomes rank 0)")
	fs.StringVar(&d.join, "dist-join", "", "join a TCP coordinator at this address or @file (rank assigned by coordinator unless -dist-rank is set)")
	fs.IntVar(&d.rank, "dist-rank", 0, "claim this specific rank when joining (0 = let the coordinator assign)")
	fs.StringVar(&d.addrFile, "dist-addr-file", "", "rank 0: publish the coordinator's bound address to this file (for -dist-join @file)")
	fs.DurationVar(&d.roundTimeout, "dist-round-timeout", 0, "rank 0: declare the slowest rank failed when a collective stalls this long (0 = off)")
	return d
}

// Enabled reports whether -dist-host or -dist-join was given.
func (d *Dist) Enabled() bool { return d.host != "" || d.join != "" }

// Open hosts a cluster of size ranks (-dist-host) or joins one
// (-dist-join; "@file" waits up to 30 s for rank 0 to publish).
func (d *Dist) Open(size int) (*mpinet.Node, error) {
	if d.host == "" {
		addr, err := supervise.ResolveAddr(d.join, 30*time.Second)
		if err != nil {
			return nil, err
		}
		node, err := mpinet.Join(addr, mpinet.Options{ClaimRank: d.rank})
		if err != nil {
			return nil, err
		}
		fmt.Printf("joined as rank %d of %d\n", node.Rank(), node.Size())
		return node, nil
	}
	if size < 1 {
		return nil, fmt.Errorf("-dist-host needs a cluster size ≥ 1, got %d", size)
	}
	node, err := mpinet.Host(d.host, size, mpinet.Options{RoundTimeout: d.roundTimeout})
	if err != nil {
		return nil, err
	}
	fmt.Printf("rank 0 hosting on %s, waiting for %d peers\n", node.Addr(), size-1)
	if d.addrFile != "" {
		if err := supervise.WriteAddrFile(d.addrFile, node.Addr()); err != nil {
			node.Close()
			return nil, err
		}
	}
	return node, nil
}

// WriteNetwork writes a synthesized network: the three-column TSV edge
// list (person_i, person_j, hours; the strict upper triangle) to out,
// and the .gsnap snapshot to snapshot — v2 with the index sections
// baked in, so netserve serves it as mmap reads with no warmup pass.
// An empty path skips that output.
func WriteNetwork(out, snapshot string, tri *sparse.Tri) error {
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		if err := graph.WriteEdgeList(f, tri); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if snapshot == "" {
		return nil
	}
	if err := gstore.WriteFileIndexed(snapshot, graph.FromTri(tri, 0), gstore.IndexOptions{}); err != nil {
		return err
	}
	fi, err := os.Stat(snapshot)
	if err != nil {
		return err
	}
	fmt.Printf("snapshot: %d bytes (v%d, indexed) → %s\n", fi.Size(), gstore.Version, snapshot)
	return nil
}
