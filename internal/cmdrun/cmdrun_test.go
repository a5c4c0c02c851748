package cmdrun

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/supervise"
	"repro/internal/telemetry"
)

// helperEnv selects, in a re-executed test binary, which fn Main runs.
const helperEnv = "CMDRUN_HELPER"

// TestMain turns the test binary into a Main-driven command when
// helperEnv is set: "ignore" runs work that never looks at ctx,
// "honour" returns ctx.Err() once the context is canceled. Both print
// "ready" once the signal handler is in place.
func TestMain(m *testing.M) {
	switch os.Getenv(helperEnv) {
	case "":
		os.Exit(m.Run())
	case "ignore":
		Main("helper", func(context.Context) error {
			fmt.Println("ready")
			time.Sleep(time.Minute)
			return nil
		})
	case "honour":
		Main("helper", func(ctx context.Context) error {
			fmt.Println("ready")
			<-ctx.Done()
			return ctx.Err()
		})
	}
	os.Exit(99)
}

// helper is a re-executed test binary running one of TestMain's modes.
type helper struct {
	cmd    *exec.Cmd
	exited chan struct{} // closed once the process has been reaped
}

// startHelper re-executes the test binary in mode and waits for it to
// report that its signal handler is installed.
func startHelper(t *testing.T, mode string) *helper {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), helperEnv+"="+mode)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	h := &helper{cmd: cmd, exited: make(chan struct{})}
	t.Cleanup(func() { cmd.Process.Kill(); <-h.exited })
	line, err := bufio.NewReader(stdout).ReadString('\n')
	go func() { cmd.Wait(); close(h.exited) }()
	if err != nil || line != "ready\n" {
		t.Fatalf("helper did not get ready: %q, %v", line, err)
	}
	return h
}

// interrupt sends SIGINT and reports the exit code if the process ends
// within d, or -1 if it is still running.
func (h *helper) interrupt(t *testing.T, d time.Duration) int {
	t.Helper()
	if err := h.cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-h.exited:
		return h.cmd.ProcessState.ExitCode()
	case <-time.After(d):
		return -1
	}
}

func TestMainSecondSignalKills(t *testing.T) {
	h := startHelper(t, "ignore")
	if code := h.interrupt(t, 500*time.Millisecond); code != -1 {
		t.Fatalf("one SIGINT ended work that ignores ctx with exit %d", code)
	}
	if code := h.interrupt(t, 5*time.Second); code != supervise.ExitFailure {
		t.Fatalf("exit code after a second SIGINT = %d, want %d", code, supervise.ExitFailure)
	}
}

func TestMainFirstSignalDrains(t *testing.T) {
	h := startHelper(t, "honour")
	if code := h.interrupt(t, 5*time.Second); code != supervise.ExitCanceled {
		t.Fatalf("exit code after one SIGINT = %d, want %d", code, supervise.ExitCanceled)
	}
}

func TestCode(t *testing.T) {
	for _, tc := range []struct {
		err  error
		code int
		line string
	}{
		{nil, 0, ""},
		{fmt.Errorf("phase: %w", context.Canceled), 2, "tool: interrupted: phase: context canceled\n"},
		{errors.New("disk full"), 1, "tool: disk full\n"},
	} {
		var w bytes.Buffer
		if code := Code(&w, "tool", tc.err); code != tc.code || w.String() != tc.line {
			t.Errorf("Code(%v) = %d, %q; want %d, %q", tc.err, code, w.String(), tc.code, tc.line)
		}
	}
}

func TestTelemetryStartPublishesAddr(t *testing.T) {
	addrFile := filepath.Join(t.TempDir(), "telemetry.addr")
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	tel := telemetryFlags(fs, "t", true)
	if err := fs.Parse([]string{"-telemetry-addr", "127.0.0.1:0", "-telemetry-addr-file", addrFile}); err != nil {
		t.Fatal(err)
	}
	stop, err := tel.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	defer telemetry.SetEnabled(false)
	b, err := os.ReadFile(addrFile)
	if err != nil {
		t.Fatal(err)
	}
	addr := strings.TrimSpace(string(b))
	if !strings.HasPrefix(addr, "127.0.0.1:") || strings.HasSuffix(addr, ":0") {
		t.Fatalf("addr file holds %q, want the bound 127.0.0.1 port", addr)
	}
}

func TestTelemetryReportEnables(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	tel := telemetryFlags(fs, "t", true)
	path := filepath.Join(t.TempDir(), "run.json")
	if err := fs.Parse([]string{"-report", path}); err != nil {
		t.Fatal(err)
	}
	telemetry.SetEnabled(false)
	defer telemetry.SetEnabled(false)
	stop, err := tel.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if !telemetry.Enabled() {
		t.Fatal("-report did not enable telemetry")
	}
	if err := tel.WriteReport(telemetry.Default.Report("t")); err != nil {
		t.Fatal(err)
	}
	if _, err := telemetry.ReadReportFile(path); err != nil {
		t.Fatal(err)
	}
}

func TestDistOpenJoinsThroughAddrFile(t *testing.T) {
	addrFile := filepath.Join(t.TempDir(), "coord.addr")
	parse := func(args ...string) *Dist {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		d := distFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		if !d.Enabled() {
			t.Fatalf("%v: not enabled", args)
		}
		return d
	}
	host := parse("-dist-host", "127.0.0.1:0", "-dist-addr-file", addrFile)
	joiner := parse("-dist-join", "@"+addrFile, "-dist-rank", "1")

	errc := make(chan error, 1)
	go func() {
		n, err := joiner.Open(0)
		if err == nil {
			if n.Rank() != 1 {
				err = fmt.Errorf("joined as rank %d, want 1", n.Rank())
			} else {
				// An Exchange of nil blobs is a barrier.
				_, err = n.Exchange(context.Background(), make([][]byte, 2))
			}
			n.Close()
		}
		errc <- err
	}()
	n, err := host.Open(2)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := n.Exchange(context.Background(), make([][]byte, 2)); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal("joiner:", err)
	}
}
