package faultinject

// Process-level injectors: the chaos tools for the supervised
// multi-process deployment. Where the wrappers in faultinject.go fail
// I/O *inside* a process, these kill whole rank processes and degrade
// the TCP links between them — the failure modes a real cluster run
// actually produces (OOM-killer, dead switch port, flaky NIC).

import (
	"encoding/binary"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// ---------------------------------------------------------------------------
// Process kills

// Kill9 delivers an uncatchable kill to the process with the given pid
// (SIGKILL on unix). The victim gets no chance to flush, close sockets,
// or run deferred cleanup — exactly the crash the supervision layer must
// recover from.
func Kill9(pid int) error {
	p, err := os.FindProcess(pid)
	if err != nil {
		return err
	}
	if err := p.Kill(); err != nil {
		return err
	}
	mInjected.Inc()
	return nil
}

// KillAfter arms a timer that Kill9s pid after delay. The returned
// cancel stops the timer if it has not fired (it does not un-kill).
func KillAfter(pid int, delay time.Duration) (cancel func()) {
	t := time.AfterFunc(delay, func() { Kill9(pid) })
	return func() { t.Stop() }
}

// ---------------------------------------------------------------------------
// Chaos proxy

// LinkFaults schedules faults for one direction of a proxied TCP link.
// Frame counts are 1-based and refer to mpinet frames (the 4-byte
// little-endian length prefix plus body); the join handshake is passed
// through intact and not counted. Zero values disable each fault.
type LinkFaults struct {
	// Delay is added before forwarding every frame (slow link).
	Delay time.Duration
	// CutAfterFrames closes the link (both directions) once this many
	// frames have been forwarded this direction — a connection reset the
	// peer observes promptly.
	CutAfterFrames int
	// BlackholeAfterFrames silently stops forwarding after this many
	// frames without closing anything — a hung link only heartbeat
	// timeouts can detect.
	BlackholeAfterFrames int
	// CorruptFrame flips bits in the opcode byte of the Nth frame,
	// modelling on-the-wire corruption. mpinet rejects the bad opcode
	// and treats the link as dead.
	CorruptFrame int
}

// Proxy is a frame-aware TCP man-in-the-middle for chaos-testing
// mpinet links: clients join the cluster through proxy.Addr() and the
// proxy forwards to the real coordinator, applying the configured
// per-direction fault schedule to every proxied connection.
//
// It understands just enough of the mpinet wire protocol to pass the
// fixed-size join handshake through untouched and then operate on
// whole frames, so a fault lands on an exact protocol unit (e.g.
// "corrupt the 3rd heartbeat") rather than an arbitrary byte offset.
type Proxy struct {
	ln       net.Listener
	target   string
	toServer LinkFaults // client → coordinator direction
	toClient LinkFaults // coordinator → client direction

	mu     sync.Mutex
	conns  []net.Conn
	closed atomic.Bool

	// Fired counts per direction, across all proxied connections.
	cuts, blackholes, corruptions atomic.Int64
}

// NewProxy listens on listenAddr (e.g. "127.0.0.1:0") and forwards each
// accepted connection to target with the given fault schedules.
func NewProxy(listenAddr, target string, toServer, toClient LinkFaults) (*Proxy, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, err
	}
	p := &Proxy{ln: ln, target: target, toServer: toServer, toClient: toClient}
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address — the address chaos'd clients
// should Join.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Faulted reports whether any scheduled fault has fired yet.
func (p *Proxy) Faulted() bool {
	return p.cuts.Load()+p.blackholes.Load()+p.corruptions.Load() > 0
}

// Close stops the proxy and severs every proxied connection.
func (p *Proxy) Close() error {
	p.closed.Store(true)
	err := p.ln.Close()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		c.Close()
	}
	p.conns = nil
	return err
}

func (p *Proxy) track(c net.Conn) {
	p.mu.Lock()
	p.conns = append(p.conns, c)
	p.mu.Unlock()
}

func (p *Proxy) acceptLoop() {
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		server, err := net.Dial("tcp", p.target)
		if err != nil {
			client.Close()
			continue
		}
		p.track(client)
		p.track(server)
		closeBoth := func() {
			client.Close()
			server.Close()
		}
		go p.pipe(client, server, p.toServer, true, closeBoth)
		go p.pipe(server, client, p.toClient, false, closeBoth)
	}
}

// mpinet handshake geometry (mirrored here so the proxy can skip it;
// the transport owns the format).
const (
	proxyHelloSize = 8  // magic | claim i32
	proxyReplySize = 12 // magic | rank u32 | size u32
)

// passHandshake forwards the direction's fixed-size handshake message
// verbatim: the client hello, or the coordinator's reply.
func passHandshake(dst io.Writer, src io.Reader, clientToServer bool) error {
	n := int64(proxyReplySize)
	if clientToServer {
		n = proxyHelloSize
	}
	_, err := io.CopyN(dst, src, n)
	return err
}

// pipe forwards src→dst frame by frame, applying faults.
func (p *Proxy) pipe(src, dst net.Conn, f LinkFaults, clientToServer bool, closeBoth func()) {
	defer closeBoth()
	if err := passHandshake(dst, src, clientToServer); err != nil {
		return
	}
	var lenBuf [4]byte
	frames := 0
	for {
		if _, err := io.ReadFull(src, lenBuf[:]); err != nil {
			return
		}
		total := binary.LittleEndian.Uint32(lenBuf[:])
		if total == 0 || total > 256<<20 {
			return
		}
		body := make([]byte, total)
		if _, err := io.ReadFull(src, body); err != nil {
			return
		}
		frames++
		if f.BlackholeAfterFrames > 0 && frames > f.BlackholeAfterFrames {
			if frames == f.BlackholeAfterFrames+1 {
				p.blackholes.Add(1)
				mInjected.Inc()
			}
			continue // swallow the frame; keep draining so the sender never blocks
		}
		if f.CorruptFrame > 0 && frames == f.CorruptFrame {
			body[0] ^= 0x80 // invalid opcode: the receiver declares the link dead
			p.corruptions.Add(1)
			mInjected.Inc()
		}
		if f.Delay > 0 {
			time.Sleep(f.Delay)
		}
		if _, err := dst.Write(lenBuf[:]); err != nil {
			return
		}
		if _, err := dst.Write(body); err != nil {
			return
		}
		if f.CutAfterFrames > 0 && frames >= f.CutAfterFrames {
			p.cuts.Add(1)
			mInjected.Inc()
			return // defer closes both sides: connection reset
		}
	}
}
