// Package abm implements the chiSIM-style agent-based simulation at the
// heart of the paper: every person in the synthetic city follows their
// daily activity schedule at one-hour resolution, moving between places
// and interacting with the other agents present.
//
// The simulation runs over an mpi.Transport exactly as the paper's Repast
// HPC deployment does: places are distributed among ranks by a
// partition.Assignment, each rank owns the agents currently located at
// its places, and agents migrate between ranks when their next activity's
// place is owned elsewhere. One event logger per rank records activity
// changes (Section III), so log files shard naturally across ranks.
// Every rank runs one program, RunOn, whatever the transport: Run is that
// program on the goroutine ranks of mpi.Run, and a chisim process runs it
// on its mpinet node.
//
// The simulation steps hourly, but like the logger an agent acts only
// when its activity changes: each rank files its residents in an agenda
// keyed by the hour their current segment stops, so an hour costs time in
// proportion to the agents that move in it, not to the population. Each
// person-day is generated once on the rank that holds the person: a rank
// keeps its residents' days in two arenas by day parity, and an agent is
// its person and the index of its current segment there, so moving on
// within a day is an increment. A migrant ships its segment and the
// receiving rank generates that day again, checking that the two agree.
//
// Because schedules are deterministic per (person, day) and independent
// of rank layout, the multiset of logged events — and therefore every
// network derived from the logs — is identical for any rank count and
// any place assignment, and the entries of one hour are written in
// person order, which makes a resumed rank's log bit-identical to an
// uninterrupted one. Tests rely on both invariants.
package abm

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/eventlog"
	"repro/internal/mpi"
	"repro/internal/partition"
	"repro/internal/schedule"
	"repro/internal/synthpop"
	"repro/internal/telemetry"
)

// Telemetry series for the simulation stage. Counters are bumped once
// per rank run (batch adds), and the exchange stopwatch costs one
// atomic load per hour when telemetry is disabled.
var (
	mHours           = telemetry.C("abm_hours_total")
	mMigrations      = telemetry.C("abm_migrations_total")
	mLocalMoves      = telemetry.C("abm_local_moves_total")
	mRankRuns        = telemetry.C("abm_rank_runs_total")
	mExchangeSeconds = telemetry.H("abm_exchange_seconds")
)

// InteractFunc is called once per (rank, hour, place) with the agents
// present, after all migrations for the hour have completed. It runs on
// the owning rank's goroutine; implementations must not retain occupants.
type InteractFunc func(rank int, hour uint32, place uint32, occupants []uint32)

// Config configures a simulation run.
type Config struct {
	Pop *synthpop.Population
	Gen *schedule.Generator
	// Ranks is the number of simulated compute processes. Run and
	// Resume start that many goroutine ranks and need it positive;
	// RunOn and ResumeOn take the count from the transport and reject a
	// nonzero Ranks that disagrees.
	Ranks int
	// Assign maps each place to its owning rank. If nil, a spatial
	// partition is computed from a schedule sample (partition.Default).
	Assign partition.Assignment
	// Days is the simulated duration in days. Must be positive.
	Days int
	// LogDir, when non-empty, receives one event-log file per rank
	// (rank0000.h5l, ...). When empty, logging is disabled.
	LogDir string
	// Log configures the per-rank loggers (cache size, compression,
	// extension columns are not used by the core loop).
	Log eventlog.Config
	// FullStateLog switches from event-based logging to the naive
	// every-agent-every-step log the paper contrasts against (one entry
	// per agent per hour). Used by the A2 ablation.
	FullStateLog bool
	// Interact, when non-nil, is invoked for every occupied place at
	// every hour.
	Interact InteractFunc
	// LogExt, when non-nil, supplies the extension-column values for
	// each log entry (Section III: "Log entries can be extended by the
	// addition of other integer entries to support the logging of agent
	// properties such as a disease state"). It is called on the owning
	// rank's goroutine at the moment the entry is written; the returned
	// slice length must match Log.ExtColumns.
	LogExt func(person uint32, stopHour uint32) []uint32
	// HourDelay, when positive, sleeps this long at the top of every
	// simulated hour. It exists for chaos testing: tiny populations
	// finish in milliseconds, too fast for an external fault (kill -9,
	// link cut) to reliably land mid-run, so the supervised smoke tests
	// stretch the wall clock deterministically with it.
	HourDelay time.Duration
	// FlushEvery, when positive, flushes each rank's log cache to a
	// durable chunk every FlushEvery simulated hours (in addition to the
	// cache-full and close-time flushes). A live consumer tailing the
	// log (eventlog.OpenTail) then sees entries at a bounded simulated
	// lag instead of waiting for the cache to fill; the cost is smaller
	// chunks. Zero keeps the batch behavior: flush only when the cache
	// fills or the run ends. The logged entries are identical either
	// way — only the chunk boundaries differ.
	FlushEvery uint32
}

// prepare validates cfg for a run on size ranks and fills in the
// default partition when Assign is nil.
func (cfg *Config) prepare(size int) error {
	if cfg.Pop == nil || cfg.Gen == nil {
		return fmt.Errorf("abm: Pop and Gen are required")
	}
	if cfg.Days <= 0 {
		return fmt.Errorf("abm: Days must be positive, got %d", cfg.Days)
	}
	if cfg.Assign == nil {
		var err error
		if cfg.Assign, err = partition.Default(cfg.Pop, cfg.Gen, cfg.Days, size); err != nil {
			return err
		}
	}
	if len(cfg.Assign) != cfg.Pop.NumPlaces() {
		return fmt.Errorf("abm: assignment covers %d places, population has %d", len(cfg.Assign), cfg.Pop.NumPlaces())
	}
	return cfg.Assign.Validate(size)
}

// logPath is rank's event log under LogDir, "" when logging is off.
func (cfg *Config) logPath(rank int) string {
	if cfg.LogDir == "" {
		return ""
	}
	return LogPath(cfg.LogDir, rank)
}

// LogPath names rank's event log in dir: dir/rankNNNN.h5l.
func LogPath(dir string, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("rank%04d.h5l", rank))
}

// Result summarizes a run.
type Result struct {
	// LogPaths are the per-rank log files (empty when logging disabled).
	LogPaths []string
	// Entries is the total number of log entries written.
	Entries uint64
	// Flushes is the total number of chunked disk writes.
	Flushes uint64
	// LogBytes is the total size of the log files on disk.
	LogBytes uint64
	// Migrations counts agent moves between ranks.
	Migrations uint64
	// LocalMoves counts place changes that stayed on-rank.
	LocalMoves uint64
	// Steps is the number of simulated hours.
	Steps int
	// PerRank holds each rank's individual counters (index = rank), the
	// raw material for per-rank imbalance roll-ups.
	PerRank []RankResult
}

// RankResult is one rank's counters.
type RankResult struct {
	Entries    uint64
	Flushes    uint64
	LogBytes   uint64
	Migrations uint64
	LocalMoves uint64
	// StoppedAt is the hour the run ended: Days*24 for a complete run,
	// the hour every rank left the loop at when the run was canceled.
	StoppedAt uint32
	// WallNs is the rank's end-to-end wall clock in nanoseconds; per-rank
	// walls expose simulation load imbalance the summed counters hide.
	WallNs  uint64
	LogPath string
}

// agent is the per-rank state of one person: the index of their current
// activity segment in the rank's held arena for that segment's day (see
// runRank). The next segment of the same day is the one after it.
type agent struct {
	person uint32
	seg    uint32
}

// Run executes the simulation on cfg.Ranks goroutine ranks of mpi.Run,
// each running RunOn's rank program, and returns the aggregate
// statistics.
//
// Cancelling ctx stops every rank at the next hour boundary — logs are
// flushed and closed with valid footers, so the run remains resumable —
// and Run returns an error wrapping context.Canceled. A rank that fails
// (an error or a panic) makes its peers' next exchange fail too, and Run
// returns the failed rank's own error.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	res, _, err := inProcess(ctx, cfg, false)
	return res, err
}

// inProcess runs the rank program on cfg.Ranks goroutine ranks and
// returns rank 0's outcome. The default partition is computed here,
// once, rather than by every rank.
func inProcess(ctx context.Context, cfg Config, resume bool) (*Result, []*ResumeReport, error) {
	if cfg.Ranks <= 0 {
		return nil, nil, fmt.Errorf("abm: Ranks must be positive, got %d", cfg.Ranks)
	}
	if err := cfg.prepare(cfg.Ranks); err != nil {
		return nil, nil, err
	}
	var res *Result
	var reports []*ResumeReport
	err := mpi.Run(cfg.Ranks, func(t mpi.Transport) error {
		r, reps, err := rankProgram(ctx, t, cfg, resume)
		if t.Rank() == 0 {
			res, reports = r, reps
		}
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return res, reports, nil
}

// RunOn runs this rank of the simulation over t — one goroutine of
// mpi.Run or one process of an mpinet cluster. Every rank calls it with
// the same Pop, Gen, Days and Assign; determinism of the schedule
// generator makes them agree on every agent's behavior without further
// coordination, and an arrival that contradicts the receiver's own
// schedule fails the run. The rank writes LogDir/rankNNNN.h5l for its
// own rank number.
//
// On success the ranks gather their counters on rank 0, which returns
// the aggregate Result; the other ranks return a nil Result. Cancelling
// ctx stops every rank at the same hour boundary with resumable logs
// and an error wrapping context.Canceled, and skips the gather.
//
// Interact and LogExt hooks run with process-local state only: in a
// distributed deployment each process sees just the agents it hosts.
func RunOn(ctx context.Context, t mpi.Transport, cfg Config) (*Result, error) {
	res, _, err := rankProgram(ctx, t, cfg, false)
	return res, err
}

// rankOutcome is what every rank sends rank 0 at the end of a run.
type rankOutcome struct {
	Result RankResult
	Report *ResumeReport `json:",omitempty"`
}

// rankProgram is the simulation as every rank runs it, on any
// transport: it runs or resumes this rank, then gathers every rank's
// outcome on rank 0, which sums them into the Result.
func rankProgram(ctx context.Context, t mpi.Transport, cfg Config, resume bool) (*Result, []*ResumeReport, error) {
	if cfg.Ranks != 0 && cfg.Ranks != t.Size() {
		return nil, nil, fmt.Errorf("abm: Ranks is %d but the transport has %d ranks", cfg.Ranks, t.Size())
	}
	if err := cfg.prepare(t.Size()); err != nil {
		return nil, nil, err
	}
	if cfg.LogDir != "" {
		if err := os.MkdirAll(cfg.LogDir, 0o755); err != nil {
			return nil, nil, err
		}
	}
	var mine rankOutcome
	var err error
	if resume {
		mine.Result, mine.Report, err = resumeRank(ctx, t, cfg)
	} else {
		mine.Result, err = runRank(ctx, t, cfg, 0, nil)
	}
	if err != nil {
		// Every rank saw the same cancel flag, so skipping the gather
		// after a cancellation is consistent across ranks.
		return nil, nil, err
	}
	blob, err := json.Marshal(mine)
	if err != nil {
		return nil, nil, err
	}
	// The run is over on every rank, so the gather completes even if
	// ctx dies now, as the hourly alignment exchange does.
	all, err := mpi.Gather(context.WithoutCancel(ctx), t, blob)
	if err != nil || t.Rank() != 0 {
		return nil, nil, err
	}
	res := &Result{Steps: cfg.Days * schedule.HoursPerDay, PerRank: make([]RankResult, len(all))}
	var reports []*ResumeReport
	for r, b := range all {
		var o rankOutcome
		if err := json.Unmarshal(b, &o); err != nil {
			return nil, nil, fmt.Errorf("abm: outcome of rank %d: %w", r, err)
		}
		rr := o.Result
		res.PerRank[r] = rr
		res.Entries += rr.Entries
		res.Flushes += rr.Flushes
		res.Migrations += rr.Migrations
		res.LocalMoves += rr.LocalMoves
		res.LogBytes += rr.LogBytes
		if cfg.LogDir != "" {
			res.LogPaths = append(res.LogPaths, rr.LogPath)
		}
		if resume {
			reports = append(reports, o.Report)
		}
	}
	return res, reports, nil
}

// agentBytes is the wire size of one migrating agent: person ID plus the
// four words of the segment it starts on arrival.
const agentBytes = 20

func appendAgent(b []byte, person uint32, seg schedule.Segment) []byte {
	le := binary.LittleEndian
	b = le.AppendUint32(b, person)
	b = le.AppendUint32(b, seg.Start)
	b = le.AppendUint32(b, seg.Stop)
	b = le.AppendUint32(b, seg.Activity)
	return le.AppendUint32(b, seg.Place)
}

// decodeAgent reads the person and segment at the head of b, which must
// hold at least agentBytes.
func decodeAgent(b []byte) (person uint32, seg schedule.Segment) {
	le := binary.LittleEndian
	return le.Uint32(b[0:]), schedule.Segment{
		Start:    le.Uint32(b[4:]),
		Stop:     le.Uint32(b[8:]),
		Activity: le.Uint32(b[12:]),
		Place:    le.Uint32(b[16:]),
	}
}

// agendaSlots is the ring size of a rank's agenda, which files every
// resident under the hour its current segment stops. A day's segments tile
// that day, so a segment picked up at hour h stops at one of h+1 … h+24:
// HoursPerDay+1 slots indexed by Stop mod agendaSlots keep those 24 hours
// apart from each other and from the slot of hour h being drained.
const agendaSlots = schedule.HoursPerDay + 1

// smallSort is the slot size up to which personSorter uses an insertion
// sort: below it the radix sort's histogram costs more than it saves
// (the two cross between 32 and 48 agents).
const smallSort = 32

// personSorter orders agents by person id with an LSD radix sort on
// 8-bit digits. Its scratch buffer is reused across hours, so a
// steady-state sort allocates nothing. Person ids are unique within a
// rank's agenda, so the order is fully determined by the ids.
type personSorter struct{ buf []agent }

// sort returns a's agents in person order: either a itself, sorted in
// place, or the sorter's scratch buffer, valid until the next call.
func (s *personSorter) sort(a []agent) []agent {
	n := len(a)
	if n <= smallSort {
		for i := 1; i < n; i++ {
			for j := i; j > 0 && a[j].person < a[j-1].person; j-- {
				a[j], a[j-1] = a[j-1], a[j]
			}
		}
		return a
	}
	var counts [4][256]uint32
	for _, x := range a {
		p := x.person
		counts[0][byte(p)]++
		counts[1][byte(p>>8)]++
		counts[2][byte(p>>16)]++
		counts[3][byte(p>>24)]++
	}
	if cap(s.buf) < n {
		s.buf = make([]agent, n+n/4)
	}
	src, dst := a, s.buf[:n]
	for d := range counts {
		c := &counts[d]
		shift := 8 * d
		if c[byte(a[0].person>>shift)] == uint32(n) {
			continue // every id has the same digit here
		}
		sum := uint32(0)
		for b, k := range c {
			c[b] = sum
			sum += k
		}
		for _, x := range src {
			b := byte(x.person >> shift)
			dst[c[b]] = x
			c[b]++
		}
		src, dst = dst, src
	}
	return src
}

// runRank simulates this rank from startHour to the end of the run.
// cfg must be prepared for t.Size() ranks. At startHour 0 the rank
// claims the agents at home at the first hour; a later startHour
// reconstructs the state at startHour deterministically from the
// schedule generator (each agent's segment is the one active at hour
// startHour-1) and logs only entries with Stop >= startHour. logger,
// when non-nil, is used instead of a fresh log at cfg.logPath — the
// salvaged log resumeRank reopens — and runRank closes it.
//
// Cancelling ctx is observed at the next hour boundary: all ranks leave
// the loop together (via the hourly flag exchange), the logger is
// flushed and closed with a valid footer that ends at that hour, and
// runRank returns the partial RankResult alongside an error wrapping
// context.Canceled.
func runRank(ctx context.Context, t mpi.Transport, cfg Config, startHour uint32, logger *eventlog.Logger) (rr RankResult, err error) {
	rank, size := t.Rank(), t.Size()
	// The rank span always measures wall time (even with telemetry
	// disabled) so RankResult.WallNs is unconditionally populated; the
	// roll-up counters are one batch add per rank run.
	_, spRank := telemetry.StartSpan(ctx, "abm/rank")
	spRank.SetRank(rank)
	defer func() {
		spRank.AddCount(int64(rr.Entries))
		rr.WallNs = uint64(spRank.End())
		mRankRuns.Inc()
		if hours := int64(rr.StoppedAt) - int64(startHour); hours > 0 {
			mHours.Add(hours)
		}
		mMigrations.Add(int64(rr.Migrations))
		mLocalMoves.Add(int64(rr.LocalMoves))
	}()
	if err := ctx.Err(); err != nil {
		if logger != nil {
			logger.Close()
		}
		return rr, fmt.Errorf("abm: run canceled before start: %w", err)
	}
	assign := cfg.Assign
	endHour := uint32(cfg.Days * schedule.HoursPerDay)

	logPath := cfg.logPath(rank)
	if logger == nil && logPath != "" {
		var err error
		logger, err = eventlog.Create(logPath, cfg.Log)
		if err != nil {
			return rr, err
		}
	}
	if logger != nil {
		defer logger.Close()
		rr.LogPath = logPath
	}
	logSegment := func(person uint32, s schedule.Segment, stop uint32) error {
		if logger == nil {
			return nil
		}
		var ext []uint32
		if cfg.LogExt != nil {
			ext = cfg.LogExt(person, stop)
		}
		return logger.Log(eventlog.Entry{
			Start:    s.Start,
			Stop:     stop,
			Person:   person,
			Activity: s.Activity,
			Place:    s.Place,
		}, ext...)
	}

	// The held days: day d's segments for this rank's residents sit in
	// held[d%2], generated once per (person, day) on this rank, and an
	// agent names its current segment by index into the arena of that
	// segment's day. Every segment of day d-2 has stopped by hour d*24,
	// so the loop empties held[d%2] then and reuses it for day d.
	var held [2][]schedule.Segment
	heldAt := func(hour uint32) *[]schedule.Segment {
		return &held[hour/schedule.HoursPerDay%2]
	}
	// hold appends person's day that covers hour to its arena and returns
	// the index of the segment active at hour.
	hold := func(person, hour uint32) uint32 {
		arena := heldAt(hour)
		i := len(*arena)
		*arena = cfg.Gen.AppendDay(*arena, person, int(hour/schedule.HoursPerDay))
		for (*arena)[i].Stop <= hour {
			i++ // schedules tile the day, so some segment covers hour
		}
		return uint32(i)
	}

	// Per-place occupancy, maintained incrementally only when an
	// interaction hook needs it.
	var occupants map[uint32][]uint32
	if cfg.Interact != nil {
		occupants = make(map[uint32][]uint32)
	}
	removeOccupant := func(place, person uint32) {
		if occupants == nil {
			return
		}
		list := occupants[place]
		for i, v := range list {
			if v == person {
				list[i] = list[len(list)-1]
				occupants[place] = list[:len(list)-1]
				return
			}
		}
	}

	// The agenda: residents filed under the hour their segment stops, so
	// hour h serves slot h and touches nobody else. enter files an agent
	// that starts segment seg at one of this rank's places.
	var agenda [agendaSlots][]agent
	enter := func(a agent, seg schedule.Segment) {
		slot := &agenda[seg.Stop%agendaSlots]
		*slot = append(*slot, a)
		if occupants != nil {
			occupants[seg.Place] = append(occupants[seg.Place], a.person)
		}
	}
	// residents gathers the whole agenda in person order, for the two
	// passes that visit everyone: FullStateLog's hourly dump and the
	// close-out of the segments in progress when the run ends.
	var sorter personSorter
	var everyone []agent
	residents := func() []agent {
		everyone = everyone[:0]
		for _, slot := range agenda {
			everyone = append(everyone, slot...)
		}
		return sorter.sort(everyone)
	}

	// Initial residency: each rank claims the agents whose current
	// segment is at one of its places. For a fresh run that is the first
	// segment of day 0, which is at the person's home (every day opens
	// there), so a rank generates day 0 only for the persons it claims.
	// For a resumed run it is the segment active at hour startHour-1,
	// which fully reconstructs the pre-crash state because schedules are
	// deterministic per (person, day); every rank generates that day for
	// every person and keeps only its own.
	if startHour == 0 {
		for p := range cfg.Pop.Persons {
			if assign[cfg.Pop.Persons[p].Home] == rank {
				a := agent{person: uint32(p), seg: hold(uint32(p), 0)}
				enter(a, held[0][a.seg])
			}
		}
	} else {
		base := startHour - 1
		arena := heldAt(base)
		for p := range cfg.Pop.Persons {
			n := len(*arena)
			a := agent{person: uint32(p), seg: hold(uint32(p), base)}
			if seg := (*arena)[a.seg]; assign[seg.Place] == rank {
				enter(a, seg)
			} else {
				*arena = (*arena)[:n]
			}
		}
	}

	// Under FullStateLog the event-based segment logging is replaced
	// by one entry per agent per hour, emitted at the bottom of the
	// hour loop.
	if cfg.FullStateLog {
		logSegment = func(uint32, schedule.Segment, uint32) error { return nil }
	}

	// Cancellation is aligned by a one-byte flag exchanged at the top of
	// every hour (0 = continue, 1 = context canceled; any 1 wins). The
	// alignment exchange itself runs under a context that cannot be
	// canceled — it is precisely the collective that lets every rank
	// agree to leave the loop together, so it must complete even when
	// this rank's ctx is already dead.
	alignCtx := context.WithoutCancel(ctx)
	canceled := false
	pollFlags := ctx.Done() != nil
	// One immutable blob set per flag value: the hourly alignment
	// allocates nothing and never rewrites a byte a peer may be reading.
	var flagOut [2][][]byte
	if pollFlags {
		for f := range flagOut {
			flagOut[f] = make([][]byte, size)
			for r := range flagOut[f] {
				flagOut[f][r] = []byte{byte(f)}
			}
		}
	}
	// Migration send buffers, reused by hour parity: Transport.Exchange
	// may keep reading one hour's blobs until the next collective returns.
	send := [2][][]byte{make([][]byte, size), make([][]byte, size)}
	rr.StoppedAt = endHour
	for hour := startHour; hour < endHour; hour++ {
		if cfg.HourDelay > 0 {
			time.Sleep(cfg.HourDelay)
		}
		if pollFlags {
			// Cancel alignment: every rank contributes a flag each hour;
			// if ANY rank saw its context canceled, all ranks leave the
			// loop at the same hour, keeping the collective schedule
			// identical on every rank.
			var flag byte
			if ctx.Err() != nil {
				flag = 1
			}
			sw := telemetry.Clock()
			in, err := t.Exchange(alignCtx, flagOut[flag])
			sw.Observe(mExchangeSeconds)
			if err != nil {
				return rr, err
			}
			for _, b := range in {
				if len(b) > 0 {
					flag |= b[0]
				}
			}
			if flag != 0 {
				canceled = true
				rr.StoppedAt = hour
				break
			}
		}
		if hour > 0 {
			// The agents whose segment expires this hour decide their
			// next activity and location. Arrivals were appended to the
			// slot in migration order, which a resumed rank would not
			// reproduce; serving the movers in person order makes the
			// entry order within an hour a pure function of the
			// simulation state, so resumed logs are bit-identical in
			// content to uninterrupted ones.
			//
			// Within a day the next segment is the held one after the
			// current; at midnight the mover's new day is generated into
			// the arena that day d-2 has vacated.
			due := &agenda[hour%agendaSlots]
			ending, next := *heldAt(hour - 1), heldAt(hour)
			midnight := hour%schedule.HoursPerDay == 0
			if midnight {
				*next = (*next)[:0]
			}
			out := send[hour%2]
			for r := range out {
				out[r] = out[r][:0]
			}
			for _, a := range sorter.sort(*due) {
				seg := ending[a.seg]
				if err := logSegment(a.person, seg, seg.Stop); err != nil {
					return rr, err
				}
				removeOccupant(seg.Place, a.person)
				if midnight {
					a.seg = hold(a.person, hour)
				} else {
					a.seg++
				}
				seg = (*next)[a.seg]
				if owner := assign[seg.Place]; owner == rank {
					enter(a, seg) // never into *due: the new Stop lies in (hour, hour+24]
					rr.LocalMoves++
				} else {
					out[owner] = appendAgent(out[owner], a.person, seg)
					rr.Migrations++
				}
			}
			*due = (*due)[:0]
			sw := telemetry.Clock()
			incoming, err := t.Exchange(alignCtx, out)
			sw.Observe(mExchangeSeconds)
			if err != nil {
				return rr, err
			}
			// An arrival's day is generated again here, once, and must
			// agree with the segment its sender shipped: ranks that were
			// started with different schedules would otherwise write logs
			// that contradict each other.
			for from, blob := range incoming {
				if len(blob)%agentBytes != 0 {
					return rr, fmt.Errorf("abm: agent batch of %d bytes is not a multiple of %d", len(blob), agentBytes)
				}
				for ; len(blob) > 0; blob = blob[agentBytes:] {
					person, seg := decodeAgent(blob)
					if int(person) >= len(cfg.Pop.Persons) {
						return rr, fmt.Errorf("abm: rank %d: person %d arrived at hour %d from rank %d, beyond this rank's %d persons: ranks disagree on Pop", rank, person, hour, from, len(cfg.Pop.Persons))
					}
					a := agent{person: person, seg: hold(person, hour)}
					if mine := (*next)[a.seg]; mine != seg {
						return rr, fmt.Errorf("abm: rank %d: person %d arrived at hour %d from rank %d with segment %+v, this rank's schedule says %+v: ranks disagree on Pop, Gen or Days", rank, person, hour, from, seg, mine)
					}
					enter(a, seg)
				}
			}
		}

		if cfg.Interact != nil {
			for place, who := range occupants {
				if len(who) > 0 {
					cfg.Interact(rank, hour, place, who)
				}
			}
		}

		if cfg.FullStateLog && logger != nil {
			current := *heldAt(hour)
			for _, a := range residents() {
				seg := current[a.seg]
				e := eventlog.Entry{
					Start:    hour,
					Stop:     hour + 1,
					Person:   a.person,
					Activity: seg.Activity,
					Place:    seg.Place,
				}
				if err := logger.Log(e); err != nil {
					return rr, err
				}
			}
		}

		// Hour-aligned durability for live tailing: everything this hour
		// logged (entries with Stop <= hour) becomes a readable chunk.
		if cfg.FlushEvery > 0 && logger != nil && (hour+1)%cfg.FlushEvery == 0 {
			if err := logger.Flush(); err != nil {
				return rr, err
			}
		}
	}

	// Close out the final in-progress segments. After a cancel the
	// in-progress segments are NOT logged: the log then ends at an hour
	// boundary, exactly the shape resumeRank restarts from.
	if !cfg.FullStateLog && !canceled {
		last := *heldAt(endHour - 1)
		for _, a := range residents() {
			seg := last[a.seg]
			if err := logSegment(a.person, seg, min(seg.Stop, endHour)); err != nil {
				return rr, err
			}
		}
	}
	if logger != nil {
		if err := logger.Flush(); err != nil {
			return rr, err
		}
		rr.Entries = logger.Logged()
		rr.Flushes = uint64(logger.Flushes())
		if err := logger.Close(); err != nil {
			return rr, err
		}
		if st, err := os.Stat(logPath); err == nil {
			rr.LogBytes = uint64(st.Size())
		}
	}
	if canceled {
		// The logs above were flushed and closed with valid footers
		// before this return, so the run is resumable despite the error.
		cause := ctx.Err()
		if cause == nil {
			// A peer rank was canceled, not this one (distributed mode).
			cause = context.Canceled
		}
		return rr, fmt.Errorf("abm: run canceled at hour %d: %w", rr.StoppedAt, cause)
	}
	return rr, nil
}
