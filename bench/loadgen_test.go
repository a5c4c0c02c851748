package main

import (
	"context"
	"net/http"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopChargesStall proves the property the open loop exists for:
// when the server stalls on one request, every request that fell due
// during the stall is charged the wait, where a closed loop would have
// seen one slow request and quietly sent the rest later.
func TestOpenLoopChargesStall(t *testing.T) {
	const (
		stall = 300 * time.Millisecond
		rate  = 100.0 // one request every 10 ms, on one connection
		n     = 60
	)
	var served atomic.Int64
	base, stop, err := serveHTTP(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 5 {
			time.Sleep(stall) // the fifth request stalls the only connection
		}
		w.Write([]byte("{}"))
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	qs := make([]query, n)
	for i := range qs {
		qs[i] = query{Path: "/", Vertex: -1}
	}
	lg := newLoadgen(base, 1, func(_ query, status int, _ []byte) bool { return status == http.StatusOK }, nil)
	defer lg.close()
	samples := lg.openLoop(context.Background(), qs, rate)

	// Requests 5..34 fell due during the 300 ms stall (30 of them at
	// 10 ms spacing). Request 4+k waited about stall − 10k ms.
	slow, charged := 0, time.Duration(0)
	for i, s := range samples {
		if !s.OK {
			t.Fatalf("request %d failed", i)
		}
		if s.Latency > 50*time.Millisecond {
			slow++
			charged += s.Latency
		}
		if i < 4 && s.Latency > 50*time.Millisecond {
			t.Errorf("request %d, due before the stall, took %v", i, s.Latency)
		}
	}
	if slow < 20 {
		t.Errorf("%d requests were charged more than 50 ms; the stall covered about 25 due times", slow)
	}
	// The area of the stall's triangle is stall²·rate/2 = 4.5 s of waiting.
	if charged < 3*time.Second {
		t.Errorf("requests were charged %v in all; a 300 ms stall at 100 req/s costs about 4.5 s", charged)
	}
	if late := samples[10].Late; late < 100*time.Millisecond {
		t.Errorf("request 10 was sent %v late; it was queued behind the stall", late)
	}
	if svc := samples[20].Service; svc > 50*time.Millisecond {
		t.Errorf("request 20's own service took %v; its wait belongs to Late, not Service", svc)
	}

	// The same server under a closed loop shows the stall once.
	served.Store(0)
	closed, _ := lg.closedLoop(context.Background(), 400*time.Millisecond, func(_, _ int) query { return qs[0] })
	slowClosed := 0
	for _, s := range closed {
		if s.Latency > 50*time.Millisecond {
			slowClosed++
		}
	}
	if slowClosed != 1 {
		t.Errorf("closed loop saw %d slow requests, want exactly the stalled one", slowClosed)
	}
}
