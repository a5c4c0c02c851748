// Package mpinet is a TCP-based implementation of the mpi.Transport
// interface, letting the simulation's ranks run as separate OS processes
// — the "distributed compute cluster" deployment of the paper — instead
// of goroutines inside one process.
//
// Topology is a star: rank 0 hosts a coordinator that the other ranks
// join. The one collective, Exchange, is a synchronous round: every rank
// submits one frame, the coordinator routes, every rank receives its
// reply (mpi.Gather is an Exchange addressed to rank 0). Because the
// simulation already requires all ranks to enter every round in the
// same order, the star adds no extra synchronization constraints; it
// trades the O(P²) connection mesh of real MPI for implementation
// clarity at the modest rank counts this reproduction targets.
//
// # Failure model
//
// A rank that dies (connection reset, premature EOF, heartbeat timeout)
// does not hang the cluster. The coordinator aborts the round in
// progress, marks the rank dead, and broadcasts an error frame carrying
// the failed rank's identity to every survivor, whose pending collective
// returns a typed *mpi.RankFailedError. Every survivor receives the same
// rank in the same order, so failure-aware callers (such as
// core.SynthesizeDistributed) can deterministically agree on how to
// redistribute the dead rank's work and retry. Subsequent collectives
// run among the survivors; a dead rank contributes nil blobs.
//
// Round consistency across aborts is kept by a sequence number stamped
// on every frame: both sides count one round per collective call
// (successful or aborted), so a contribution from before an abort is
// recognizably stale and discarded rather than corrupting a retry.
//
// Liveness is coordinator-driven: clients heartbeat the coordinator so
// silent deaths are detected even mid-computation, and the coordinator
// heartbeats blocked clients so a rank waiting in a collective can
// distinguish "peers are slow" from "coordinator is gone". An optional
// per-collective deadline (Options.RoundTimeout) additionally bounds the
// skew between the first and last rank entering a round: laggards past
// the deadline are declared failed, so a wedged rank cannot stall the
// cluster forever even while its heartbeats keep flowing.
//
// # Rank discovery
//
// Membership settles before the first round. Host opens one join
// window, Options.DialTimeout long, and every joiner presents a claim:
// -1 takes the lowest free slot, a positive rank pins that slot. A slot
// is claimed once; a claim on a taken or out-of-range slot, or a hello
// that arrives after the window, is rejected with ErrClaimRejected. The
// coordinator admits claims until every slot has joined or the window
// closes, closes the listener, and only then starts the round loop:
// collectives entered meanwhile wait, and heartbeats flow both ways so
// nobody blocked in its first round is taken for dead. Every slot that
// never joined is declared failed exactly like a silent peer: each
// survivor gets one *mpi.RankFailedError per missing slot, from the
// first round on, and can re-stripe its work. Every joiner therefore
// starts at round 0 with no dead ranks.
//
// # Wire format
//
// Every frame is length-prefixed
//
//	frameLen u32 | op u8 | seq u32 | nblobs u32 | { blobLen u32 | blob }*
//
// with all integers little-endian. The join handshake is client-first:
//
//	client → coordinator: magic "CSIM" | claim i32
//	coordinator → client: magic "CSIM" | rank u32 | size u32
//
// A rejected claim is answered with magic "CNO!" in the reply header.
package mpinet

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mpi"
	"repro/internal/telemetry"
)

// Telemetry series for the network transport: one round per Exchange,
// payload bytes as sent, failures as observed by the coordinator's
// detector.
var (
	mRounds       = telemetry.C("mpinet_rounds_total")
	mBytesSent    = telemetry.C("mpinet_bytes_sent_total")
	mRankFailures = telemetry.C("mpinet_rank_failures_total")
	mRoundSeconds = telemetry.H("mpinet_round_seconds")
)

const (
	handshakeMagic = "CSIM"
	rejectMagic    = "CNO!"
)

// helloSize is the client hello: magic, claim i32.
const helloSize = 4 + 4

// replyHdrSize is the coordinator reply: magic, rank, size.
const replyHdrSize = 4 + 4 + 4

// ErrClaimRejected is returned by Join when the coordinator refuses the
// presented rank claim (the slot is taken or out of range, no slot is
// free for an anonymous join, or the join window has closed). The
// rejection is permanent:
// retrying the same claim cannot succeed.
var ErrClaimRejected = errors.New("mpinet: join claim rejected")

// Frame opcodes.
const (
	opExchange  byte = iota + 1 // one rank's round contribution or reply
	opHeartbeat                 // liveness signal; never part of a round
	opError                     // round abort: blobs[0] = failed rank (int32 LE)
)

// maxFrame bounds a single frame to guard against corrupt length
// prefixes (256 MiB is far above any batch the simulation exchanges).
const maxFrame = 256 << 20

// frameHdrSize is op + seq + nblobs.
const frameHdrSize = 1 + 4 + 4

// Options tunes the transport's robustness machinery. The zero value of
// each field selects its default; use Host(addr, size, opts) / Join(addr,
// opts) to apply.
type Options struct {
	// DialTimeout is Join's total retry budget when the coordinator is
	// not yet listening (exponential backoff with jitter underneath) and
	// the coordinator's join window: no round runs before it closes or
	// every slot has joined, and a slot that has not joined by then is
	// declared failed. Default 15s.
	DialTimeout time.Duration
	// IOTimeout is the per-frame write deadline and the handshake read
	// deadline. Default 30s.
	IOTimeout time.Duration
	// HeartbeatInterval is how often liveness frames are sent in both
	// directions. Default 500ms.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is how long a peer may stay silent before being
	// declared dead. Default 5s.
	HeartbeatTimeout time.Duration
	// RoundTimeout, when positive, is the coordinator's per-collective
	// deadline: once the first contribution of a round arrives, the
	// remaining live ranks (other than rank 0, which hosts the clock)
	// must contribute within this window or the lowest-numbered laggard
	// is declared failed. It bounds the compute skew the cluster
	// tolerates between ranks, so set it well above the slowest rank's
	// longest inter-collective stretch. Zero disables (default).
	RoundTimeout time.Duration
	// ClaimRank, when positive, pins the rank this Join claims instead
	// of accepting coordinator assignment, so a supervisor knows which
	// process holds which slot. Zero joins anonymously. Join only.
	ClaimRank int
	// WrapConn, when non-nil, wraps the dialed connection before use —
	// a fault-injection hook for chaos tests (see
	// faultinject.NewFlakyConn). Join only.
	WrapConn func(net.Conn) net.Conn
}

func withDefaults(opts []Options) Options {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 15 * time.Second
	}
	if o.IOTimeout <= 0 {
		o.IOTimeout = 30 * time.Second
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 500 * time.Millisecond
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 5 * time.Second
	}
	return o
}

// frame is one collective contribution or reply.
type frame struct {
	op    byte
	seq   uint32
	blobs [][]byte
}

func writeFrame(w *bufio.Writer, f frame) error {
	total := frameHdrSize
	for _, b := range f.blobs {
		total += 4 + len(b)
	}
	if total > maxFrame {
		return fmt.Errorf("mpinet: frame of %d bytes exceeds limit", total)
	}
	var u32 [4]byte
	le := binary.LittleEndian
	le.PutUint32(u32[:], uint32(total))
	if _, err := w.Write(u32[:]); err != nil {
		return err
	}
	if err := w.WriteByte(f.op); err != nil {
		return err
	}
	le.PutUint32(u32[:], f.seq)
	if _, err := w.Write(u32[:]); err != nil {
		return err
	}
	le.PutUint32(u32[:], uint32(len(f.blobs)))
	if _, err := w.Write(u32[:]); err != nil {
		return err
	}
	for _, b := range f.blobs {
		le.PutUint32(u32[:], uint32(len(b)))
		if _, err := w.Write(u32[:]); err != nil {
			return err
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return w.Flush()
}

func readFrame(r *bufio.Reader) (frame, error) {
	var u32 [4]byte
	if _, err := io.ReadFull(r, u32[:]); err != nil {
		return frame{}, err
	}
	le := binary.LittleEndian
	total := le.Uint32(u32[:])
	if total < frameHdrSize || total > maxFrame {
		return frame{}, fmt.Errorf("mpinet: bad frame length %d", total)
	}
	body := make([]byte, total)
	if _, err := io.ReadFull(r, body); err != nil {
		return frame{}, err
	}
	f := frame{op: body[0], seq: le.Uint32(body[1:5])}
	if f.op == 0 || f.op > opError {
		// On-the-wire corruption: reject the frame so the connection is
		// declared dead instead of a bogus opcode entering a round.
		return frame{}, fmt.Errorf("mpinet: bad opcode %d", f.op)
	}
	n := le.Uint32(body[5:9])
	off := uint32(frameHdrSize)
	for i := uint32(0); i < n; i++ {
		if off+4 > total {
			return frame{}, fmt.Errorf("mpinet: truncated frame")
		}
		bl := le.Uint32(body[off:])
		off += 4
		if off+bl > total || off+bl < off {
			return frame{}, fmt.Errorf("mpinet: truncated blob")
		}
		f.blobs = append(f.blobs, body[off:off+bl])
		off += bl
	}
	return f, nil
}

// errorFrame builds the round-abort broadcast naming a failed rank.
func errorFrame(seq uint32, rank int) frame {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(int32(rank)))
	return frame{op: opError, seq: seq, blobs: [][]byte{b[:]}}
}

// frameRank decodes the failed rank of an opError frame.
func frameRank(f frame) int {
	if len(f.blobs) < 1 || len(f.blobs[0]) < 4 {
		return -1
	}
	return int(int32(binary.LittleEndian.Uint32(f.blobs[0])))
}

// contribution is one rank's collective input arriving at the
// coordinator, or the error that ended its connection.
type contribution struct {
	rank int
	f    frame
	err  error
}

// joinReq is one validated client hello awaiting the join phase's
// membership decision.
type joinReq struct {
	conn  net.Conn
	claim int
}

// peer is the coordinator's per-client connection state.
type peer struct {
	conn     net.Conn
	bw       *bufio.Writer
	wmu      sync.Mutex // serializes reply and heartbeat writes
	lastSeen atomic.Int64
	dead     atomic.Bool
}

// send writes one frame to the peer under its write lock with deadline.
func (p *peer) send(f frame, timeout time.Duration) error {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	p.conn.SetWriteDeadline(time.Now().Add(timeout))
	err := writeFrame(p.bw, f)
	p.conn.SetWriteDeadline(time.Time{})
	return err
}

// Node is one rank's handle; it implements mpi.Transport.
type Node struct {
	rank, size int
	opts       Options
	seq        uint32 // next collective round number

	// Client side (rank > 0).
	conn   net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	wmu    sync.Mutex // serializes collective and heartbeat writes
	hbStop chan struct{}
	hbOnce sync.Once

	// Coordinator side (rank 0).
	coord *coordinator
}

type coordinator struct {
	ln   net.Listener
	size int
	opts Options

	mu    sync.Mutex // guards peers slots for the failure detector
	peers []*peer    // index 0 unused; fixed once the join phase ends

	contribs  chan contribution
	joins     chan *joinReq // unbuffered: only the join phase receives
	joinEnd   chan struct{} // closed when the join phase ends
	replies   []chan frame  // only [0] is used: rank 0's local delivery
	done      chan struct{}
	closeOnce sync.Once
	errs      chan error
}

var errHeartbeatExpired = errors.New("mpinet: heartbeat timeout")
var errRoundExpired = errors.New("mpinet: collective round deadline exceeded")

// stop records err (best effort), signals shutdown and releases the
// sockets. Safe to call from any goroutine, any number of times.
func (c *coordinator) stop(err error) {
	if err != nil {
		select {
		case c.errs <- err:
		default:
		}
	}
	c.closeOnce.Do(func() { close(c.done) })
	c.teardown()
}

// Host listens on addr for the size-1 joins and returns the rank-0 Node
// at once; rounds wait until the join phase ends. Size must be at least
// 1; with size 1 the transport is fully local. The listener closes when
// every slot has joined or when the join window (Options.DialTimeout)
// ends, whichever is first.
func Host(addr string, size int, opts ...Options) (*Node, error) {
	if size < 1 {
		return nil, fmt.Errorf("mpinet: size must be ≥ 1, got %d", size)
	}
	o := withDefaults(opts)
	c := &coordinator{
		size: size,
		opts: o,
		// Nothing posted during the join phase may block: per peer one
		// frame, one read error and one heartbeat expiry, plus rank 0's
		// frame.
		contribs: make(chan contribution, 3*size-2),
		joins:    make(chan *joinReq),
		joinEnd:  make(chan struct{}),
		replies:  make([]chan frame, size),
		done:     make(chan struct{}),
		errs:     make(chan error, size),
	}
	// replies[0] must absorb every abort broadcast (at most one per
	// worker death) plus one round reply without blocking the round
	// loop, even if rank 0 is between collectives at the time.
	c.replies[0] = make(chan frame, size)
	node := &Node{rank: 0, size: size, opts: o, coord: c}
	if size > 1 {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return nil, err
		}
		c.ln = ln
		c.peers = make([]*peer, size)
		go c.acceptLoop()
		go c.heartbeatLoop()
	}
	go c.run()
	return node, nil
}

// acceptLoop hands each connection to its own hello reader until the
// join phase closes the listener.
func (c *coordinator) acceptLoop() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		go c.handleHello(conn)
	}
}

// handleHello reads one client hello off its own goroutine (so a stalled
// joiner cannot head-of-line block other joins) and posts the claim to
// the join phase, which owns membership; a hello that arrives after it
// is refused.
func (c *coordinator) handleHello(conn net.Conn) {
	var hello [helloSize]byte
	conn.SetReadDeadline(time.Now().Add(c.opts.IOTimeout))
	if _, err := io.ReadFull(conn, hello[:]); err != nil {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	if string(hello[:4]) != handshakeMagic {
		conn.Close()
		return
	}
	jr := &joinReq{conn: conn, claim: int(int32(binary.LittleEndian.Uint32(hello[4:])))}
	select {
	case c.joins <- jr:
	case <-c.joinEnd:
		c.reject(conn)
	case <-c.done:
		conn.Close()
	}
}

// reject answers a refused claim and closes the connection.
func (c *coordinator) reject(conn net.Conn) {
	var b [replyHdrSize]byte
	copy(b[:4], rejectMagic)
	conn.SetWriteDeadline(time.Now().Add(c.opts.IOTimeout))
	conn.Write(b[:])
	conn.Close()
}

// Join dials the coordinator at addr and returns this process's Node.
// The rank is the claimed one (Options.ClaimRank) or assigned by the
// coordinator. Dialing retries with exponential backoff plus jitter
// until Options.DialTimeout elapses, so ranks can be launched in any
// order without a thundering-herd of reconnects. A refused claim
// returns an error wrapping ErrClaimRejected and is not retried.
func Join(addr string, opts ...Options) (*Node, error) {
	o := withDefaults(opts)
	var conn net.Conn
	deadline := time.Now().Add(o.DialTimeout)
	backoff := 10 * time.Millisecond
	const backoffCap = time.Second
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	attempts := 0
	var err error
	for {
		attempts++
		conn, err = net.DialTimeout("tcp", addr, o.IOTimeout)
		if err == nil {
			break
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, fmt.Errorf("mpinet: joining %s: %d attempts over %v: %w",
				addr, attempts, o.DialTimeout, err)
		}
		// Full jitter on top of the exponential base keeps simultaneous
		// joiners from hammering the coordinator in lockstep.
		sleep := backoff + time.Duration(rng.Int63n(int64(backoff)))
		if sleep > remain {
			sleep = remain
		}
		time.Sleep(sleep)
		if backoff < backoffCap {
			backoff *= 2
		}
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	if o.WrapConn != nil {
		conn = o.WrapConn(conn)
	}
	le := binary.LittleEndian

	// Client hello: present the claim.
	claim := o.ClaimRank
	if claim <= 0 {
		claim = -1
	}
	var hello [helloSize]byte
	copy(hello[:4], handshakeMagic)
	le.PutUint32(hello[4:], uint32(int32(claim)))
	conn.SetWriteDeadline(time.Now().Add(o.IOTimeout))
	if _, err := conn.Write(hello[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("mpinet: handshake: %w", err)
	}
	conn.SetWriteDeadline(time.Time{})

	// Coordinator reply: assigned rank and cluster size.
	var hdr [replyHdrSize]byte
	conn.SetReadDeadline(time.Now().Add(o.IOTimeout))
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("mpinet: handshake: %w", err)
	}
	switch string(hdr[:4]) {
	case handshakeMagic:
	case rejectMagic:
		conn.Close()
		if o.ClaimRank > 0 {
			return nil, fmt.Errorf("mpinet: claiming rank %d: %w", o.ClaimRank, ErrClaimRejected)
		}
		return nil, fmt.Errorf("mpinet: joining %s: %w", addr, ErrClaimRejected)
	default:
		conn.Close()
		return nil, fmt.Errorf("mpinet: bad handshake magic %q", hdr[:4])
	}
	conn.SetReadDeadline(time.Time{})
	n := &Node{
		rank:   int(le.Uint32(hdr[4:])),
		size:   int(le.Uint32(hdr[8:])),
		opts:   o,
		conn:   conn,
		br:     bufio.NewReaderSize(conn, 1<<16),
		bw:     bufio.NewWriterSize(conn, 1<<16),
		hbStop: make(chan struct{}),
	}
	go n.heartbeatLoop()
	return n, nil
}

// heartbeatLoop (client side) keeps the coordinator's failure detector
// fed while this rank computes between collectives.
func (n *Node) heartbeatLoop() {
	t := time.NewTicker(n.opts.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-n.hbStop:
			return
		case <-t.C:
		}
		n.wmu.Lock()
		n.conn.SetWriteDeadline(time.Now().Add(n.opts.HeartbeatInterval))
		err := writeFrame(n.bw, frame{op: opHeartbeat})
		n.conn.SetWriteDeadline(time.Time{})
		n.wmu.Unlock()
		if err != nil {
			return // conn is dead; the next collective will surface it
		}
	}
}

// heartbeatLoop (coordinator side) does two jobs per tick: declare
// silent clients dead (feeding the round loop an error contribution) and
// send liveness frames to healthy clients so ranks blocked in a
// collective don't mistake slow peers for a dead coordinator.
func (c *coordinator) heartbeatLoop() {
	t := time.NewTicker(c.opts.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-t.C:
		}
		c.mu.Lock()
		peers := append([]*peer(nil), c.peers...)
		c.mu.Unlock()
		now := time.Now()
		for r, p := range peers {
			if p == nil || p.dead.Load() {
				continue
			}
			if now.Sub(time.Unix(0, p.lastSeen.Load())) > c.opts.HeartbeatTimeout {
				p.dead.Store(true)
				select {
				case c.contribs <- contribution{rank: r, err: errHeartbeatExpired}:
				case <-c.done:
					return
				}
				continue
			}
			// Ignore write errors here: a failed heartbeat write means
			// the conn is dying, which readLoop reports authoritatively.
			_ = p.send(frame{op: opHeartbeat}, c.opts.HeartbeatInterval)
		}
	}
}

// readLoop feeds one client's frames into the coordinator.
func (c *coordinator) readLoop(rank int, p *peer) {
	br := bufio.NewReaderSize(p.conn, 1<<16)
	for {
		f, err := readFrame(br)
		if err != nil {
			select {
			case c.contribs <- contribution{rank: rank, err: err}:
			case <-c.done:
			}
			return
		}
		p.lastSeen.Store(time.Now().UnixNano())
		if f.op == opHeartbeat {
			continue
		}
		select {
		case c.contribs <- contribution{rank: rank, f: f}:
		case <-c.done:
			return
		}
	}
}

// currentPeer returns the installed connection for a rank.
func (c *coordinator) currentPeer(rank int) *peer {
	if rank <= 0 || c.peers == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peers[rank]
}

// markDead counts one death the run loop has decided and, if the rank
// ever joined, flags its peer and closes its socket (waking its
// readLoop and failing any in-flight write).
func (c *coordinator) markDead(rank int) {
	mRankFailures.Inc()
	if p := c.currentPeer(rank); p != nil {
		p.dead.Store(true)
		p.conn.Close()
	}
}

// broadcast delivers a round-abort frame to every live rank. Ranks
// whose notification cannot be delivered are themselves marked dead and
// returned for follow-up aborts.
func (c *coordinator) broadcast(alive []bool, f frame) (more []int) {
	for r := range alive {
		if !alive[r] {
			continue
		}
		if r == 0 {
			select {
			case c.replies[0] <- f:
			case <-c.done:
			}
			continue
		}
		p := c.currentPeer(r)
		if p == nil {
			continue
		}
		if err := p.send(f, c.opts.IOTimeout); err != nil {
			alive[r] = false
			c.markDead(r)
			more = append(more, r)
		}
	}
	return more
}

// admit answers one claim and reports whether it filled a slot. An
// anonymous claim (-1) takes the lowest slot that has not joined; an
// explicit one names its slot. A slot is claimed once: a taken or
// out-of-range claim is rejected. An admitted joiner gets the handshake
// reply — its rank and the size — and its read loop starts. If the
// reply cannot be delivered the slot stays free.
func (c *coordinator) admit(jr *joinReq) bool {
	r := jr.claim
	if r < 0 {
		for r = 1; r < c.size && c.currentPeer(r) != nil; r++ {
		}
	}
	if r <= 0 || r >= c.size || c.currentPeer(r) != nil {
		c.reject(jr.conn)
		return false
	}
	var buf [replyHdrSize]byte
	copy(buf[:4], handshakeMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(r))
	binary.LittleEndian.PutUint32(buf[8:], uint32(c.size))
	jr.conn.SetWriteDeadline(time.Now().Add(c.opts.IOTimeout))
	if _, err := jr.conn.Write(buf[:]); err != nil {
		jr.conn.Close()
		return false
	}
	jr.conn.SetWriteDeadline(time.Time{})
	p := &peer{conn: jr.conn, bw: bufio.NewWriterSize(jr.conn, 1<<16)}
	p.lastSeen.Store(time.Now().UnixNano())
	c.mu.Lock()
	c.peers[r] = p
	c.mu.Unlock()
	go c.readLoop(r, p)
	return true
}

// join is the join phase: it admits claims until every slot has joined
// or the join window ends, then closes the listener and refuses any
// hello still in flight.
func (c *coordinator) join() {
	window := time.NewTimer(c.opts.DialTimeout)
	defer window.Stop()
	defer close(c.joinEnd)
	defer c.ln.Close()
	for joined := 0; joined < c.size-1; {
		select {
		case jr := <-c.joins:
			if c.admit(jr) {
				joined++
			}
		case <-window.C:
			return
		case <-c.done:
			return
		}
	}
}

// run settles membership, then processes collective rounds until
// teardown. Every slot that never joined is a pending death before the
// first round. Round protocol: one contribution per live rank, all
// carrying the current sequence number; a death aborts the round —
// survivors get an opError frame naming the dead rank — and bumps the
// sequence so stale retransmissions are discarded.
func (c *coordinator) run() {
	size := c.size
	alive := make([]bool, size)
	for i := range alive {
		alive[i] = true
	}
	var pendingDead []int
	if size > 1 {
		c.join()
		for r := 1; r < size; r++ {
			if c.currentPeer(r) == nil {
				alive[r] = false
				c.markDead(r)
				pendingDead = append(pendingDead, r)
			}
		}
	}
	var seq uint32
	for {
		if len(pendingDead) > 0 {
			f := pendingDead[0]
			pendingDead = append(pendingDead[:0], pendingDead[1:]...)
			pendingDead = append(pendingDead, c.broadcast(alive, errorFrame(seq, f))...)
			seq++
			continue
		}
		need := 0
		for _, a := range alive {
			if a {
				need++
			}
		}
		// Collect one contribution per live rank for round seq. Every
		// death found on the way is queued in pendingDead and aborts it.
		round := make([]frame, size)
		have := make([]bool, size)
		var roundTimer *time.Timer
		var timerC <-chan time.Time
	collect:
		for got := 0; got < need; {
			select {
			case ct := <-c.contribs:
				if ct.rank < 0 || ct.rank >= size || !alive[ct.rank] {
					continue // late traffic from an already-dead rank
				}
				if ct.err != nil {
					alive[ct.rank] = false
					c.markDead(ct.rank)
					pendingDead = append(pendingDead, ct.rank)
					break collect
				}
				if ct.f.seq != seq {
					if ct.f.seq < seq {
						continue // stale contribution from an aborted round
					}
					c.stop(fmt.Errorf("mpinet: rank %d ahead of round (seq %d, coordinator at %d)", ct.rank, ct.f.seq, seq))
					return
				}
				if have[ct.rank] {
					c.stop(fmt.Errorf("mpinet: rank %d contributed twice to round %d", ct.rank, seq))
					return
				}
				round[ct.rank] = ct.f
				have[ct.rank] = true
				got++
				if got == 1 && c.opts.RoundTimeout > 0 {
					roundTimer = time.NewTimer(c.opts.RoundTimeout)
					timerC = roundTimer.C
				}
			case <-timerC:
				// Per-collective deadline: the slowest live rank (rank 0
				// hosts the clock and is exempt) is declared failed.
				lag := -1
				for r := 1; r < size; r++ {
					if alive[r] && !have[r] {
						lag = r
						break
					}
				}
				if lag < 0 {
					roundTimer.Reset(c.opts.RoundTimeout)
					continue
				}
				alive[lag] = false
				c.markDead(lag)
				pendingDead = append(pendingDead, lag)
				break collect
			case <-c.done:
				if roundTimer != nil {
					roundTimer.Stop()
				}
				return
			}
		}
		if roundTimer != nil {
			roundTimer.Stop()
		}
		if len(pendingDead) > 0 {
			continue
		}
		// Route. Dead ranks contribute nil blobs and receive nothing.
		out := make([]frame, size)
		for dst := 0; dst < size; dst++ {
			if !alive[dst] {
				continue
			}
			blobs := make([][]byte, size)
			for src := 0; src < size; src++ {
				if alive[src] && dst < len(round[src].blobs) {
					blobs[src] = round[src].blobs[dst]
				}
			}
			out[dst] = frame{op: opExchange, seq: seq, blobs: blobs}
		}
		// Deliver. A failed delivery marks the rank dead; the round
		// still counts as complete for everyone else, and the death is
		// announced at the top of the next iteration. Rank 0 goes last:
		// it may Close the moment its reply lands, and the teardown must
		// not overtake the workers' replies.
		for r := 1; r < size; r++ {
			if !alive[r] {
				continue
			}
			p := c.currentPeer(r)
			if p == nil {
				continue
			}
			if err := p.send(out[r], c.opts.IOTimeout); err != nil {
				alive[r] = false
				c.markDead(r)
				pendingDead = append(pendingDead, r)
			}
		}
		if alive[0] {
			select {
			case c.replies[0] <- out[0]:
			case <-c.done:
				return
			}
		}
		seq++
	}
}

func (c *coordinator) teardown() {
	if c.ln != nil {
		c.ln.Close()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.peers {
		if p != nil {
			p.conn.Close()
		}
	}
}

// Rank returns this node's rank.
func (n *Node) Rank() int { return n.rank }

// Size returns the number of participating ranks.
func (n *Node) Size() int { return n.size }

// failErr wraps a transport-level failure where no specific rank can be
// blamed (from this node's point of view the coordinator is gone).
func failErr(op string, err error) error {
	return &mpi.RankFailedError{Rank: -1, Op: op, Err: err}
}

// ctxErr wraps a context cancellation observed during a collective. It
// is deliberately NOT a *mpi.RankFailedError: cancellation is this
// process's own decision, so failure-tolerant callers (which retry on
// rank deaths) must see it as a plain abort and give up.
func ctxErr(op string, err error) error {
	return fmt.Errorf("mpinet: %s: %w", op, err)
}

// roundTrip submits f for the next round and waits for the reply.
// Heartbeat frames are skipped; an opError reply is surfaced as a
// *mpi.RankFailedError naming the dead rank.
//
// Cancellation joins the existing failure machinery: on the coordinator
// rank the reply wait selects on ctx.Done alongside the shutdown
// channel; on client ranks a context.AfterFunc forces the blocked frame
// read to fail by expiring the read deadline — the same wake-up path the
// heartbeat failure detector uses — and the resulting read error is
// attributed to the context rather than to a peer. A node whose
// collective was canceled is no longer round-aligned with the cluster
// and must be Closed; the survivors' failure detector then reclassifies
// this rank as dead, exactly as for a crash.
func (n *Node) roundTrip(ctx context.Context, f frame) (frame, error) {
	const op = "Exchange"
	if err := ctx.Err(); err != nil {
		return frame{}, ctxErr(op, err)
	}
	mRounds.Inc()
	var outBytes int64
	for _, b := range f.blobs {
		outBytes += int64(len(b))
	}
	mBytesSent.Add(outBytes)
	sw := telemetry.Clock()
	defer sw.Observe(mRoundSeconds)
	f.seq = n.seq
	n.seq++ // one round consumed per call, successful or aborted
	if n.coord != nil {
		select {
		case n.coord.contribs <- contribution{rank: 0, f: f}:
		case <-ctx.Done():
			return frame{}, ctxErr(op, ctx.Err())
		case <-n.coord.done:
			return frame{}, failErr(op, n.coordErr())
		}
		select {
		case rep := <-n.coord.replies[0]:
			if rep.op == opError {
				return frame{}, &mpi.RankFailedError{Rank: frameRank(rep), Op: op}
			}
			return rep, nil
		case <-ctx.Done():
			return frame{}, ctxErr(op, ctx.Err())
		case <-n.coord.done:
			return frame{}, failErr(op, n.coordErr())
		}
	}
	if ctx.Done() != nil {
		// Wake the blocked read below the moment the context dies. The
		// deadline is left expired on purpose: the node is out of the
		// round protocol after a cancellation and must not be reused.
		stop := context.AfterFunc(ctx, func() {
			n.conn.SetReadDeadline(time.Unix(1, 0))
		})
		defer stop()
	}
	n.wmu.Lock()
	n.conn.SetWriteDeadline(time.Now().Add(n.opts.IOTimeout))
	err := writeFrame(n.bw, f)
	n.conn.SetWriteDeadline(time.Time{})
	n.wmu.Unlock()
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return frame{}, ctxErr(op, cerr)
		}
		return frame{}, failErr(op, err)
	}
	for {
		// The coordinator heartbeats at HeartbeatInterval, so a healthy
		// link always delivers SOMETHING well within the timeout, no
		// matter how slow the other ranks are.
		n.conn.SetReadDeadline(time.Now().Add(n.opts.HeartbeatTimeout))
		rep, err := readFrame(n.br)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return frame{}, ctxErr(op, cerr)
			}
			return frame{}, failErr(op, err)
		}
		switch rep.op {
		case opHeartbeat:
			continue
		case opError:
			n.conn.SetReadDeadline(time.Time{})
			return frame{}, &mpi.RankFailedError{Rank: frameRank(rep), Op: op}
		default:
			n.conn.SetReadDeadline(time.Time{})
			return rep, nil
		}
	}
}

func (n *Node) coordErr() error {
	select {
	case err := <-n.coord.errs:
		return err
	default:
		return fmt.Errorf("mpinet: coordinator stopped")
	}
}

// Exchange performs a personalized all-to-all of byte blobs. Blobs from
// ranks that have died are delivered as nil.
func (n *Node) Exchange(ctx context.Context, out [][]byte) ([][]byte, error) {
	if len(out) != n.size {
		return nil, fmt.Errorf("mpinet: Exchange with %d blobs for %d ranks", len(out), n.size)
	}
	rep, err := n.roundTrip(ctx, frame{op: opExchange, blobs: out})
	if err != nil {
		return nil, err
	}
	if len(rep.blobs) != n.size {
		return nil, fmt.Errorf("mpinet: Exchange reply has %d blobs", len(rep.blobs))
	}
	return rep.blobs, nil
}

// Close releases the node's connection. Rank 0's Close tears the whole
// coordinator down; call it only after every rank has finished its
// collectives.
func (n *Node) Close() error {
	if n.coord != nil {
		n.coord.stop(nil)
		return nil
	}
	n.hbOnce.Do(func() {
		if n.hbStop != nil {
			close(n.hbStop)
		}
	})
	return n.conn.Close()
}

// Addr returns the coordinator's listen address (rank 0 only), useful
// when hosting on ":0".
func (n *Node) Addr() string {
	if n.coord != nil && n.coord.ln != nil {
		return n.coord.ln.Addr().String()
	}
	return ""
}
