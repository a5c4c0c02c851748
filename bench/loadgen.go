package main

import (
	"context"
	"io"
	"net/http"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// query is one request the generator sends.
type query struct {
	Kind int    // index into queryKinds
	Path string // with query string
	// Vertex is the vertex a sampled /v1/degree reply is checked against,
	// -1 when the reply is only checked for 200 + valid JSON.
	Vertex int
}

// sample is what the generator measured for one request.
type sample struct {
	Kind int
	// Latency runs from the request's due time in the open loop (so it
	// holds the wait a stall imposed) and from the send in the closed loop.
	Latency time.Duration
	// Late is how long after its due time the request was sent (open loop).
	Late time.Duration
	// Service is send → reply.
	Service time.Duration
	// At is when the reply was in, since the loop started.
	At time.Duration
	OK bool
}

// verifyFunc decides whether a reply is correct.
type verifyFunc func(q query, status int, body []byte) bool

// loadgen is the benchmark's own load generator: one process, conns
// keep-alive connections, one goroutine per connection.
type loadgen struct {
	client *http.Client
	base   string
	conns  int
	verify verifyFunc
	rec    *recorder
}

func newLoadgen(base string, conns int, verify verifyFunc, rec *recorder) *loadgen {
	return &loadgen{
		client: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
			Timeout:   5 * time.Second, // a reply slower than this is a failure
		},
		base: base, conns: conns, verify: verify, rec: rec,
	}
}

func (l *loadgen) close() { l.client.CloseIdleConnections() }

// send issues q and reports whether the reply was correct and when it
// had been read in full.
func (l *loadgen) send(ctx context.Context, q query) (bool, time.Time) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, l.base+q.Path, nil)
	if err != nil {
		return false, time.Now()
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return false, time.Now()
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	done := time.Now()
	return err == nil && l.verify(q, resp.StatusCode, body), done
}

// openLoop sends qs on a fixed schedule: request k is due at start +
// k/rate and goes out on connection k mod conns, whatever happened to the
// requests before it. A connection that is still busy when a request
// falls due sends it late; the request's latency still runs from its due
// time, so a stall in the server is charged to every request queued
// behind it.
func (l *loadgen) openLoop(ctx context.Context, qs []query, rate float64) []sample {
	out := make([]sample, len(qs))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < l.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c; k < len(qs); k += l.conns {
				due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
				sleepUntil(due)
				sent := time.Now()
				ok, done := l.send(ctx, qs[k])
				out[k] = sample{Kind: qs[k].Kind, Latency: done.Sub(due), Late: sent.Sub(due), Service: done.Sub(sent), At: done.Sub(start), OK: ok}
				if l.rec != nil {
					root := l.rec.add(k, -1, "bench.request", due, done)
					l.rec.add(k, root, "loadgen.wait", due, sent)
					l.rec.add(k, root, "netserve.request", sent, done)
				}
			}
		}(c)
	}
	wg.Wait()
	return out
}

// sleepUntil returns at t, to within a few microseconds. It sleeps in
// nanosleep until shortly before t and yields in a loop from there.
// time.Sleep alone parks the goroutine on the runtime's network poller,
// whose time-outs are whole milliseconds, and nanosleep alone wakes 0.1 to
// 0.2 ms late on this virtual machine: either way the median latency from
// the due time was the generator's own lateness, several times the service
// time of the cheap endpoints, and moved by a sixth from run to run. The
// yielding costs each connection at most a quarter of a millisecond of
// processor per request, and gives way to any goroutine that can run.
func sleepUntil(t time.Time) {
	for d := time.Until(t) - 250*time.Microsecond; d > 0; d = time.Until(t) - 250*time.Microsecond {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // a signal wakes it early; the loop sleeps again
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// closedLoop keeps conns clients busy for d: each sends its next request
// only when the previous reply is in. Connection c draws its requests
// from next(c, i).
func (l *loadgen) closedLoop(ctx context.Context, d time.Duration, next func(conn, i int) query) ([]sample, time.Duration) {
	per := make([][]sample, l.conns)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < l.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Since(start) < d; i++ {
				q := next(c, i)
				sent := time.Now()
				ok, done := l.send(ctx, q)
				per[c] = append(per[c], sample{Kind: q.Kind, Latency: done.Sub(sent), Service: done.Sub(sent), At: done.Sub(start), OK: ok})
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var out []sample
	for _, p := range per {
		out = append(out, p...)
	}
	return out, elapsed
}
