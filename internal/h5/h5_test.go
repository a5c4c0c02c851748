package h5

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

var testSchema = Schema{RecordSize: 20, Columns: []string{"start", "stop", "person", "activity", "place"}}

func writeFile(t *testing.T, path string, flags uint16, chunks [][]byte) {
	t.Helper()
	w, err := Create(path, testSchema, flags)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range chunks {
		if err := w.WriteChunk(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func randChunks(seed uint64, n int) [][]byte {
	r := rng.New(seed)
	chunks := make([][]byte, n)
	for i := range chunks {
		records := 1 + r.Intn(50)
		c := make([]byte, records*20)
		for k := range c {
			c[k] = byte(r.Uint64())
		}
		chunks[i] = c
	}
	return chunks
}

func TestRoundTrip(t *testing.T) {
	for _, flags := range []uint16{0, FlagDeflate} {
		path := filepath.Join(t.TempDir(), "t.h5l")
		chunks := randChunks(1, 7)
		writeFile(t, path, flags, chunks)

		r, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if r.NumChunks() != len(chunks) {
			t.Fatalf("flags %d: NumChunks = %d, want %d", flags, r.NumChunks(), len(chunks))
		}
		for i, want := range chunks {
			got, err := r.ReadChunk(i, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("flags %d: chunk %d differs", flags, i)
			}
		}
	}
}

func TestSchemaRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.h5l")
	writeFile(t, path, 0, randChunks(2, 1))
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	s := r.Schema()
	if s.RecordSize != 20 {
		t.Errorf("RecordSize = %d, want 20", s.RecordSize)
	}
	if len(s.Columns) != 5 || s.Columns[0] != "start" || s.Columns[4] != "place" {
		t.Errorf("Columns = %v", s.Columns)
	}
}

func TestEmptyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.h5l")
	writeFile(t, path, 0, nil)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumChunks() != 0 || r.NumRecords() != 0 {
		t.Fatal("empty file should have no chunks or records")
	}
}

func TestNumRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.h5l")
	writeFile(t, path, 0, [][]byte{make([]byte, 20*3), make([]byte, 20*5)})
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumRecords() != 8 {
		t.Fatalf("NumRecords = %d, want 8", r.NumRecords())
	}
	if r.ChunkRecords(0) != 3 || r.ChunkRecords(1) != 5 {
		t.Fatal("per-chunk record counts wrong")
	}
}

func TestForEachChunkOrderAndConcatenation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.h5l")
	chunks := randChunks(3, 5)
	writeFile(t, path, FlagDeflate, chunks)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var want, got []byte
	for _, c := range chunks {
		want = append(want, c...)
	}
	err = r.ForEachChunk(func(i int, p []byte) error {
		got = append(got, p...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("iteration does not equal concatenation of chunks")
	}
}

func TestRandomAccessEqualsSequential(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.h5l")
	chunks := randChunks(4, 9)
	writeFile(t, path, FlagDeflate, chunks)
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Read in a scrambled order.
	for _, i := range []int{8, 0, 4, 2, 7, 1, 3, 6, 5} {
		got, err := r.ReadChunk(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, chunks[i]) {
			t.Fatalf("random-access chunk %d differs", i)
		}
	}
}

func TestWriteChunkValidation(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testSchema, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteChunk(nil); err == nil {
		t.Error("empty chunk accepted")
	}
	if err := w.WriteChunk(make([]byte, 19)); err == nil {
		t.Error("non-multiple chunk accepted")
	}
	if err := w.WriteChunk(make([]byte, 40)); err != nil {
		t.Errorf("valid chunk rejected: %v", err)
	}
}

func TestWriteAfterClose(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, testSchema, 0)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteChunk(make([]byte, 20)); err == nil {
		t.Fatal("write after close accepted")
	}
	// Idempotent close.
	if err := w.Close(); err != nil {
		t.Fatalf("second close errored: %v", err)
	}
}

func TestBadRecordSize(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, Schema{RecordSize: 0}, 0); err == nil {
		t.Fatal("zero record size accepted")
	}
}

func TestReadChunkOutOfRange(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.h5l")
	writeFile(t, path, 0, randChunks(5, 2))
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.ReadChunk(-1, nil); err == nil {
		t.Error("chunk -1 accepted")
	}
	if _, err := r.ReadChunk(2, nil); err == nil {
		t.Error("chunk past end accepted")
	}
}

func TestCorruptFooterRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.h5l")
	writeFile(t, path, 0, randChunks(6, 2))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff // clobber footer magic
	if _, err := NewReader(bytes.NewReader(data), int64(len(data))); err == nil {
		t.Fatal("corrupt footer accepted")
	}
}

func TestTruncatedFileRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.h5l")
	writeFile(t, path, 0, randChunks(7, 3))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, 10, len(data) / 2, len(data) - 1} {
		trunc := data[:cut]
		if _, err := NewReader(bytes.NewReader(trunc), int64(len(trunc))); err == nil {
			t.Errorf("truncation to %d bytes accepted", cut)
		}
	}
}

func TestCorruptHeaderMagicRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.h5l")
	writeFile(t, path, 0, randChunks(8, 1))
	data, _ := os.ReadFile(path)
	data[0] = 'X'
	if _, err := NewReader(bytes.NewReader(data), int64(len(data))); err == nil {
		t.Fatal("corrupt header magic accepted")
	}
}

func TestWriterAccessors(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testSchema, FlagDeflate)
	if err != nil {
		t.Fatal(err)
	}
	if w.Schema().RecordSize != 20 || len(w.Schema().Columns) != 5 {
		t.Fatal("writer schema accessor wrong")
	}
	if w.Chunks() != 0 {
		t.Fatal("fresh writer reports chunks")
	}
	if err := w.WriteChunk(make([]byte, 40)); err != nil {
		t.Fatal(err)
	}
	if w.Chunks() != 1 {
		t.Fatalf("Chunks = %d, want 1", w.Chunks())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReaderFlags(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.h5l")
	writeFile(t, path, FlagDeflate, randChunks(21, 1))
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Flags()&FlagDeflate == 0 {
		t.Fatal("deflate flag not round-tripped")
	}
}

func TestOpenMissingFile(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "absent.h5l")); err == nil {
		t.Fatal("missing file opened")
	}
}

func TestCreateInMissingDirectory(t *testing.T) {
	if _, err := Create(filepath.Join(t.TempDir(), "no", "such", "dir", "f.h5l"), testSchema, 0); err == nil {
		t.Fatal("create in missing directory succeeded")
	}
}

func TestCreateRejectsBadSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.h5l")
	if _, err := Create(path, Schema{RecordSize: 0}, 0); err == nil {
		t.Fatal("bad schema accepted by Create")
	}
	// The file must not linger half-written as a usable artifact.
	if _, err := Open(path); err == nil {
		t.Fatal("half-written file opened successfully")
	}
}

func TestCompressionShrinksRepetitiveData(t *testing.T) {
	dir := t.TempDir()
	// Highly repetitive payload compresses well.
	chunk := bytes.Repeat([]byte{1, 2, 3, 4}, 20*100/4)
	p0 := filepath.Join(dir, "raw.h5l")
	p1 := filepath.Join(dir, "def.h5l")
	writeFile(t, p0, 0, [][]byte{chunk})
	writeFile(t, p1, FlagDeflate, [][]byte{chunk})
	s0, _ := os.Stat(p0)
	s1, _ := os.Stat(p1)
	if s1.Size() >= s0.Size() {
		t.Fatalf("deflate file (%d) not smaller than raw (%d)", s1.Size(), s0.Size())
	}
}

// Property: any sequence of random chunks round-trips bit-exactly under
// both flag settings.
func TestQuickRoundTrip(t *testing.T) {
	dir := t.TempDir()
	n := 0
	f := func(seed uint64, deflate bool) bool {
		n++
		path := filepath.Join(dir, "q.h5l")
		r := rng.New(seed)
		nchunks := r.Intn(5)
		chunks := make([][]byte, nchunks)
		for i := range chunks {
			c := make([]byte, (1+r.Intn(30))*20)
			for k := range c {
				c[k] = byte(r.Uint64())
			}
			chunks[i] = c
		}
		flags := uint16(0)
		if deflate {
			flags = FlagDeflate
		}
		w, err := Create(path, testSchema, flags)
		if err != nil {
			return false
		}
		for _, c := range chunks {
			if err := w.WriteChunk(c); err != nil {
				return false
			}
		}
		if err := w.Close(); err != nil {
			return false
		}
		rd, err := Open(path)
		if err != nil {
			return false
		}
		defer rd.Close()
		if rd.NumChunks() != nchunks {
			return false
		}
		for i, want := range chunks {
			got, err := rd.ReadChunk(i, nil)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWriteChunk10k(b *testing.B) {
	chunk := make([]byte, 20*10000)
	w, err := Create(filepath.Join(b.TempDir(), "b.h5l"), testSchema, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	b.SetBytes(int64(len(chunk)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.WriteChunk(chunk); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteChunk10kDeflate(b *testing.B) {
	chunk := make([]byte, 20*10000)
	r := rng.New(1)
	for i := range chunk {
		chunk[i] = byte(r.Intn(4)) // compressible but non-trivial
	}
	w, err := Create(filepath.Join(b.TempDir(), "b.h5l"), testSchema, FlagDeflate)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	b.SetBytes(int64(len(chunk)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.WriteChunk(chunk); err != nil {
			b.Fatal(err)
		}
	}
}

// writeCounter counts the Write calls that reach it.
type writeCounter struct {
	bytes.Buffer
	calls int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.calls++
	return w.Buffer.Write(p)
}

// TestWriteChunkIsOneWrite: every chunk — header, payload and CRC —
// reaches the underlying writer in a single Write, under every flag set,
// and the file reads back.
func TestWriteChunkIsOneWrite(t *testing.T) {
	chunks := randChunks(6, 5)
	for _, flags := range []uint16{0, FlagCRC32, FlagDeflate, FlagDeflate | FlagCRC32} {
		var out writeCounter
		w, err := NewWriter(&out, testSchema, flags)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range chunks {
			before := out.calls
			if err := w.WriteChunk(c); err != nil {
				t.Fatal(err)
			}
			if n := out.calls - before; n != 1 {
				t.Fatalf("flags %d: chunk %d took %d writes, want 1", flags, i, n)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(bytes.NewReader(out.Bytes()), int64(out.Len()))
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range chunks {
			if got, err := r.ReadChunk(i, nil); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("flags %d: chunk %d reads back wrong (err %v)", flags, i, err)
			}
		}
	}
}

// readCounter is an io.ReaderAt over a byte slice that counts its
// ReadAt calls.
type readCounter struct {
	*bytes.Reader
	calls int
}

func (r *readCounter) ReadAt(p []byte, off int64) (int, error) {
	r.calls++
	return r.Reader.ReadAt(p, off)
}

// TestReadChunkIsOneRead: every chunk — payload and CRC — comes from the
// underlying reader in a single ReadAt, under every flag set.
func TestReadChunkIsOneRead(t *testing.T) {
	chunks := randChunks(6, 5)
	for _, flags := range []uint16{0, FlagCRC32, FlagDeflate, FlagDeflate | FlagCRC32} {
		var out bytes.Buffer
		w, err := NewWriter(&out, testSchema, flags)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range chunks {
			if err := w.WriteChunk(c); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		src := &readCounter{Reader: bytes.NewReader(out.Bytes())}
		r, err := NewReader(src, int64(out.Len()))
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range chunks {
			before := src.calls
			got, err := r.ReadChunk(i, nil)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("flags %d: chunk %d reads back wrong (err %v)", flags, i, err)
			}
			if n := src.calls - before; n != 1 {
				t.Fatalf("flags %d: chunk %d took %d reads, want 1", flags, i, n)
			}
		}
	}
}

// TestReadChunkAppends: ReadChunk appends the payload to dst, keeping
// dst's contents, and a buffer passed back as dst[:0] is reused once it
// has grown to a chunk, under every flag set.
func TestReadChunkAppends(t *testing.T) {
	chunks := randChunks(6, 5)
	for _, flags := range []uint16{0, FlagCRC32, FlagDeflate, FlagDeflate | FlagCRC32} {
		var out bytes.Buffer
		w, err := NewWriter(&out, testSchema, flags)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range chunks {
			if err := w.WriteChunk(c); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(bytes.NewReader(out.Bytes()), int64(out.Len()))
		if err != nil {
			t.Fatal(err)
		}
		prefix := []byte("keep")
		got, err := r.ReadChunk(1, prefix)
		if err != nil || !bytes.Equal(got, append([]byte("keep"), chunks[1]...)) {
			t.Fatalf("flags %d: ReadChunk(1, prefix) = %q, %v", flags, got, err)
		}
		buf := make([]byte, 0, 1<<16)
		for i, want := range chunks {
			got, err := r.ReadChunk(i, buf[:0])
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("flags %d: chunk %d reads back wrong (err %v)", flags, i, err)
			}
			if &got[:1][0] != &buf[:1][0] {
				t.Fatalf("flags %d: chunk %d not read into the buffer passed in", flags, i)
			}
		}
	}
}
