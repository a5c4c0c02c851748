package h5

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/rng"
)

var allFlagSets = []uint16{0, FlagDeflate, FlagCRC32, FlagDeflate | FlagCRC32}

// buildFile writes a file with the given chunks and returns its bytes
// plus the end offset of every chunk (offset just past chunk i).
func buildFile(t *testing.T, path string, flags uint16, chunks [][]byte) (data []byte, chunkEnds []int64) {
	t.Helper()
	w, err := Create(path, testSchema, flags)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range chunks {
		if err := w.WriteChunk(c); err != nil {
			t.Fatal(err)
		}
		chunkEnds = append(chunkEnds, int64(w.offset))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, chunkEnds
}

func TestRecoverCompleteFile(t *testing.T) {
	for _, flags := range allFlagSets {
		path := filepath.Join(t.TempDir(), "t.h5l")
		chunks := randChunks(11, 5)
		writeFile(t, path, flags, chunks)
		s, err := Recover(path)
		if err != nil {
			t.Fatalf("flags %#x: %v", flags, err)
		}
		if !s.Complete() {
			t.Fatalf("flags %#x: complete file not recognized", flags)
		}
		if s.Chunks() != len(chunks) || s.TruncatedBytes() != 0 {
			t.Fatalf("flags %#x: chunks=%d truncated=%d", flags, s.Chunks(), s.TruncatedBytes())
		}
		r, err := s.Reader()
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range chunks {
			got, err := r.ReadChunk(i, nil)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("flags %#x: chunk %d: %v", flags, i, err)
			}
		}
		r.Close()
	}
}

// The core salvage property: truncating a valid file at EVERY byte
// offset and running Recover always yields exactly the longest intact
// chunk prefix — never a partial or corrupt chunk, never fewer chunks
// than fully present.
func TestRecoverTruncatedAtEveryByte(t *testing.T) {
	for _, flags := range allFlagSets {
		dir := t.TempDir()
		full := filepath.Join(dir, "full.h5l")
		chunks := randChunks(12, 6)
		data, ends := buildFile(t, full, flags, chunks)
		headerEnd := ends[0] - chunkStride(uint32(len(chunks[0])), flags)
		if flags&FlagDeflate != 0 {
			// Compressed sizes differ; recompute header end from chunk 0
			// meta via Recover on the full file.
			s, err := Recover(full)
			if err != nil {
				t.Fatal(err)
			}
			headerEnd = s.dataStart()
		}

		trunc := filepath.Join(dir, "trunc.h5l")
		for cut := int64(0); cut <= int64(len(data)); cut++ {
			if err := os.WriteFile(trunc, data[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Recover(trunc)
			if cut < headerEnd {
				// Header incomplete: unrecoverable, must error (not
				// misparse).
				if err == nil {
					t.Fatalf("flags %#x cut %d: truncated header accepted", flags, cut)
				}
				continue
			}
			if err != nil {
				t.Fatalf("flags %#x cut %d: %v", flags, cut, err)
			}
			want := 0
			for _, e := range ends {
				if e <= cut {
					want++
				}
			}
			if s.Chunks() != want {
				t.Fatalf("flags %#x cut %d: recovered %d chunks, want %d", flags, cut, s.Chunks(), want)
			}
			r, err := s.Reader()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < want; i++ {
				got, err := r.ReadChunk(i, nil)
				if err != nil || !bytes.Equal(got, chunks[i]) {
					t.Fatalf("flags %#x cut %d: salvaged chunk %d corrupt: %v", flags, cut, i, err)
				}
			}
			r.Close()
		}
	}
}

func TestRecoverStopsAtBitFlip(t *testing.T) {
	// With CRC, a flipped payload byte in chunk 2 of a crashed file must
	// limit the salvage to chunks 0-1.
	for _, flags := range []uint16{FlagCRC32, FlagCRC32 | FlagDeflate} {
		dir := t.TempDir()
		path := filepath.Join(dir, "t.h5l")
		chunks := randChunks(13, 5)
		data, ends := buildFile(t, path, flags, chunks)
		// Simulate crash: drop index+footer, then flip a byte inside
		// chunk 2's payload.
		crashed := data[:ends[len(ends)-1]]
		flipAt := ends[1] + chunkHdrSize + 3
		crashed[flipAt] ^= 0x40
		if err := os.WriteFile(path, crashed, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Recover(path)
		if err != nil {
			t.Fatal(err)
		}
		if s.Chunks() != 2 {
			t.Fatalf("flags %#x: salvaged %d chunks past a bit flip, want 2", flags, s.Chunks())
		}
	}
}

func TestReadChunkDetectsCorruptionViaCRC(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.h5l")
	chunks := randChunks(14, 3)
	data, ends := buildFile(t, path, FlagCRC32, chunks)
	data[ends[0]+chunkHdrSize+1] ^= 0x01 // flip byte in chunk 1 payload
	r, err := NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadChunk(0, nil); err != nil {
		t.Fatalf("intact chunk rejected: %v", err)
	}
	if _, err := r.ReadChunk(1, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt chunk read succeeded: %v", err)
	}
}

func TestRecoverResumeAppend(t *testing.T) {
	for _, flags := range allFlagSets {
		dir := t.TempDir()
		path := filepath.Join(dir, "t.h5l")
		chunks := randChunks(15, 4)
		data, ends := buildFile(t, path, flags, chunks)
		// Crash mid-chunk-3: keep chunks 0-2 plus half of chunk 3.
		cut := ends[2] + (ends[3]-ends[2])/2
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Recover(path)
		if err != nil {
			t.Fatal(err)
		}
		if s.Chunks() != 3 {
			t.Fatalf("flags %#x: salvaged %d chunks, want 3", flags, s.Chunks())
		}
		if s.TruncatedBytes() == 0 {
			t.Fatalf("flags %#x: torn tail not reported", flags)
		}
		w, err := s.Resume(s.Chunks())
		if err != nil {
			t.Fatal(err)
		}
		extra := randChunks(16, 2)
		for _, c := range extra {
			if err := w.WriteChunk(c); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		// The resumed file is a normal, footer-complete file containing
		// chunks 0-2 plus the two appended ones.
		r, err := Open(path)
		if err != nil {
			t.Fatalf("flags %#x: resumed file unreadable: %v", flags, err)
		}
		want := append(append([][]byte{}, chunks[:3]...), extra...)
		if r.NumChunks() != len(want) {
			t.Fatalf("flags %#x: %d chunks, want %d", flags, r.NumChunks(), len(want))
		}
		for i, wc := range want {
			got, err := r.ReadChunk(i, nil)
			if err != nil || !bytes.Equal(got, wc) {
				t.Fatalf("flags %#x chunk %d: %v", flags, i, err)
			}
		}
		r.Close()
	}
}

func TestResumeKeepFewerChunks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.h5l")
	chunks := randChunks(17, 4)
	writeFile(t, path, FlagCRC32, chunks)
	s, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.Resume(2) // drop chunks 2,3 even though intact
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumChunks() != 2 {
		t.Fatalf("NumChunks = %d, want 2", r.NumChunks())
	}
	if _, err := s.Resume(5); err == nil {
		t.Fatal("keep beyond salvage accepted")
	}
	if _, err := s.Resume(-1); err == nil {
		t.Fatal("negative keep accepted")
	}
}

func TestRecoverEmptyCrashedFile(t *testing.T) {
	// A file that crashed before writing any chunk: header only.
	dir := t.TempDir()
	path := filepath.Join(dir, "t.h5l")
	data, _ := buildFile(t, path, FlagCRC32, randChunks(18, 1))
	s0, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	headerEnd := s0.dataStart()
	if err := os.WriteFile(path, data[:headerEnd], 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Chunks() != 0 || s.Records() != 0 {
		t.Fatalf("chunks=%d records=%d, want 0", s.Chunks(), s.Records())
	}
	w, err := s.Resume(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteChunk(make([]byte, 40)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err != nil {
		t.Fatalf("resumed-from-empty file unreadable: %v", err)
	}
}

// Corrupt / hostile index entries must be rejected with descriptive
// errors, not undefined behaviour.
func TestNewReaderRejectsCorruptIndex(t *testing.T) {
	base := func(t *testing.T) ([]byte, int64) {
		path := filepath.Join(t.TempDir(), "t.h5l")
		data, ends := buildFile(t, path, 0, randChunks(19, 2))
		_ = ends
		indexOff := int64(len(data)) - footerSize - 2*20
		return data, indexOff
	}
	le := binary.LittleEndian
	cases := []struct {
		name  string
		patch func(data []byte, indexOff int64)
	}{
		{"offset into header", func(d []byte, io int64) {
			le.PutUint64(d[io:], 2) // points inside the magic
		}},
		{"offset overflow", func(d []byte, io int64) {
			le.PutUint64(d[io:], 1<<63)
		}},
		{"length past index", func(d []byte, io int64) {
			le.PutUint32(d[io+8:], 1<<30)
		}},
		{"zero records", func(d []byte, io int64) {
			le.PutUint32(d[io+16:], 0)
		}},
		{"record accounting mismatch", func(d []byte, io int64) {
			le.PutUint32(d[io+16:], 7) // rawLen no longer records*20
		}},
		{"raw length not multiple of record size", func(d []byte, io int64) {
			le.PutUint32(d[io+12:], 21)
		}},
		{"stored/raw mismatch uncompressed", func(d []byte, io int64) {
			cl := le.Uint32(d[io+8:])
			le.PutUint32(d[io+12:], cl+20)
			le.PutUint32(d[io+16:], (cl+20)/20)
		}},
		{"second chunk overlaps first", func(d []byte, io int64) {
			first := le.Uint64(d[io:])
			le.PutUint64(d[io+20:], first+1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data, indexOff := base(t)
			tc.patch(data, indexOff)
			_, err := NewReader(bytes.NewReader(data), int64(len(data)))
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("corrupt index accepted or wrong error: %v", err)
			}
		})
	}
}

func TestNewReaderRejectsCorruptFooterGeometry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.h5l")
	data, _ := buildFile(t, path, 0, randChunks(20, 1))
	le := binary.LittleEndian
	// Index offset pointing inside the header but with matching size
	// arithmetic is impossible; instead test the overflow guard.
	d := append([]byte(nil), data...)
	le.PutUint64(d[len(d)-footerSize:], 1<<63)
	if _, err := NewReader(bytes.NewReader(d), int64(len(d))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("overflowing index offset accepted: %v", err)
	}
}

// Fuzz-style property: random mutations of a valid file never crash the
// reader — they either open cleanly or return an error.
func TestNewReaderRandomMutationsNeverPanic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.h5l")
	data, _ := buildFile(t, path, FlagCRC32, randChunks(21, 3))
	r := rng.New(99)
	for trial := 0; trial < 2000; trial++ {
		d := append([]byte(nil), data...)
		for flips := 0; flips <= r.Intn(4); flips++ {
			d[r.Intn(len(d))] ^= byte(1 + r.Uint64()%255)
		}
		rd, err := NewReader(bytes.NewReader(d), int64(len(d)))
		if err != nil {
			continue
		}
		// Opened: every chunk read must either succeed or error cleanly.
		for i := 0; i < rd.NumChunks(); i++ {
			rd.ReadChunk(i, nil) //nolint:errcheck
		}
	}
}

// Chaos: a writer dying mid-chunk (torn write) leaves a file whose
// salvage is exactly the chunks written before the failure.
func TestWriterCrashMidChunkSalvage(t *testing.T) {
	for _, flags := range allFlagSets {
		dir := t.TempDir()
		path := filepath.Join(dir, "t.h5l")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		// Budget: header + 2 chunks + part of the 3rd.
		chunks := randChunks(22, 4)
		probe, probeEnds := buildFile(t, filepath.Join(dir, "probe.h5l"), flags, chunks)
		_ = probe
		budget := probeEnds[1] + (probeEnds[2]-probeEnds[1])/3
		fw := &faultinject.FlakyWriter{W: f, FailAfter: budget, Short: true}
		w, err := NewWriter(fw, testSchema, flags)
		if err != nil {
			t.Fatal(err)
		}
		var failedAt int
		for i, c := range chunks {
			if err := w.WriteChunk(c); err != nil {
				failedAt = i
				break
			}
		}
		f.Close()
		if failedAt != 2 {
			t.Fatalf("flags %#x: writer failed at chunk %d, want 2", flags, failedAt)
		}
		s, err := Recover(path)
		if err != nil {
			t.Fatal(err)
		}
		if s.Chunks() != 2 {
			t.Fatalf("flags %#x: salvaged %d chunks after torn write, want 2", flags, s.Chunks())
		}
		r, err := s.Reader()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			got, err := r.ReadChunk(i, nil)
			if err != nil || !bytes.Equal(got, chunks[i]) {
				t.Fatalf("flags %#x: salvaged chunk %d wrong: %v", flags, i, err)
			}
		}
		r.Close()
	}
}

// Crash points compiled into the writer fire on schedule.
func TestWriterCrashPoints(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	path := filepath.Join(t.TempDir(), "t.h5l")
	w, err := Create(path, testSchema, FlagCRC32)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(CrashWriteChunk, 2, nil)
	if err := w.WriteChunk(make([]byte, 20)); err != nil {
		t.Fatalf("chunk 1 failed early: %v", err)
	}
	if err := w.WriteChunk(make([]byte, 20)); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("crash point did not fire: %v", err)
	}
	faultinject.Reset()
	faultinject.Arm(CrashClose, 1, nil)
	if err := w.Close(); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("close crash point did not fire: %v", err)
	}
	faultinject.Reset()
	// The file has one chunk and no footer: salvage finds it.
	s, err := Recover(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Complete() || s.Chunks() != 1 {
		t.Fatalf("salvage after crash-point close: complete=%v chunks=%d", s.Complete(), s.Chunks())
	}
}

func TestNewWriterRejectsUnknownFlags(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, testSchema, 1<<7); err == nil {
		t.Fatal("unknown flag accepted")
	}
}
