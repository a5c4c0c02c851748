package h5

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestRecoverFromCursor is the incremental-tail contract: scanning a
// complete file from the end of chunk i yields exactly the chunks
// after i, and the durable cursor always lands on the same end offset
// as a full recovery — it never regresses.
func TestRecoverFromCursor(t *testing.T) {
	for _, flags := range allFlagSets {
		path := filepath.Join(t.TempDir(), "t.h5l")
		chunks := randChunks(9, 7)
		_, ends := buildFile(t, path, flags, chunks)
		full, err := Recover(path)
		if err != nil {
			t.Fatalf("flags %#x: %v", flags, err)
		}

		for i, pos := range ends {
			s, err := RecoverFrom(path, pos)
			if err != nil {
				t.Fatalf("flags %#x pos %d: %v", flags, pos, err)
			}
			if !s.Complete() {
				t.Fatalf("flags %#x pos %d: complete file not recognized", flags, pos)
			}
			if want := len(chunks) - (i + 1); s.Chunks() != want {
				t.Fatalf("flags %#x from chunk %d end: %d chunks, want %d", flags, i, s.Chunks(), want)
			}
			if s.End() != full.End() {
				t.Fatalf("flags %#x pos %d: cursor %d, full recovery says %d", flags, pos, s.End(), full.End())
			}
			if s.Chunks() == 0 {
				continue
			}
			r, err := s.Reader()
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < s.Chunks(); k++ {
				got, err := r.ReadChunk(k, nil)
				if err != nil || !bytes.Equal(got, chunks[i+1+k]) {
					t.Fatalf("flags %#x from chunk %d end: chunk %d mismatch: %v", flags, i, k, err)
				}
			}
			r.Close()
		}

		// From position 0 (and from inside the header, which clamps) the
		// scan is a full recovery.
		for _, pos := range []int64{0, 4} {
			s, err := RecoverFrom(path, pos)
			if err != nil {
				t.Fatal(err)
			}
			if s.Chunks() != len(chunks) {
				t.Fatalf("flags %#x pos %d: %d chunks, want all %d", flags, pos, s.Chunks(), len(chunks))
			}
		}
	}
}

// TestRecoverFromTornFile: on a footer-less file cut mid-chunk, the
// incremental scan salvages exactly the intact chunks past the cursor
// and reports the file incomplete — the state a live tail sees between
// a writer's flushes.
func TestRecoverFromTornFile(t *testing.T) {
	for _, flags := range allFlagSets {
		path := filepath.Join(t.TempDir(), "t.h5l")
		chunks := randChunks(13, 5)
		data, ends := buildFile(t, path, flags, chunks)

		// Keep everything up to mid-way through the last chunk, no footer.
		cut := ends[len(ends)-2] + (ends[len(ends)-1]-ends[len(ends)-2])/2
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}

		s, err := RecoverFrom(path, ends[1]) // cursor after chunk 1
		if err != nil {
			t.Fatalf("flags %#x: %v", flags, err)
		}
		if s.Complete() {
			t.Fatalf("flags %#x: torn file reported complete", flags)
		}
		// Chunks 2 and 3 are intact past the cursor; the torn chunk 4 is
		// not salvaged and the cursor stops at chunk 3's end.
		if s.Chunks() != 2 {
			t.Fatalf("flags %#x: salvaged %d chunks, want 2", flags, s.Chunks())
		}
		if s.End() != ends[len(ends)-2] {
			t.Fatalf("flags %#x: cursor %d, want %d", flags, s.End(), ends[len(ends)-2])
		}
		r, err := s.Reader()
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 2; k++ {
			got, err := r.ReadChunk(k, nil)
			if err != nil || !bytes.Equal(got, chunks[2+k]) {
				t.Fatalf("flags %#x: salvaged chunk %d mismatch: %v", flags, k, err)
			}
		}
		r.Close()

		// Resuming from the torn scan's own cursor finds nothing new.
		again, err := RecoverFrom(path, s.End())
		if err != nil {
			t.Fatal(err)
		}
		if again.Chunks() != 0 || again.End() != s.End() {
			t.Fatalf("flags %#x: rescan from cursor found %d chunks, cursor %d → %d",
				flags, again.Chunks(), s.End(), again.End())
		}
	}
}
