package cluster

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

func writeJournal(t *testing.T, dir string, content []byte) string {
	t.Helper()
	path := filepath.Join(dir, journalName)
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// readRecords parses the journal file at path, returning every clean
// record and the byte offset up to which the file is clean.
func readRecords(path string) ([]record, int64, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	return readLog(b)
}

// collect is a replay visitor that keeps a copy of every record.
func collect(recs *[]record) func(*record) error {
	return func(r *record) error {
		*recs = append(*recs, *r)
		return nil
	}
}

func tickRecords(ts ...int) []record {
	recs := make([]record, len(ts))
	for i, t := range ts {
		recs[i] = record{Seq: int64(i + 1), Op: opTick, T: t}
	}
	return recs
}

func TestJournalTornTailDropped(t *testing.T) {
	dir := t.TempDir()
	clean := encodeBinLog(tickRecords(5, 9))
	torn := encodeBinLog(tickRecords(5, 9, 12))
	path := writeJournal(t, dir, torn[:len(torn)-3]) // torn mid-frame
	var recs []record
	j, err := openJournal(dir, false, collect(&recs))
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	if len(recs) != 2 || recs[1].Seq != 2 {
		t.Fatalf("recs = %+v, want the two clean records", recs)
	}
	if b, _ := os.ReadFile(path); !bytes.Equal(b, clean) {
		t.Fatalf("torn bytes survived open: %d bytes on disk, want %d", len(b), len(clean))
	}
	// The torn bytes are gone: appending continues cleanly.
	j.seq = 2
	if err := j.append(record{Op: opTick, T: 12}); err != nil {
		t.Fatal(err)
	}
	recs2, _, err := readRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs2) != 3 || recs2[2].Seq != 3 || recs2[2].T != 12 {
		t.Fatalf("after append recs = %+v", recs2)
	}
}

// TestJournalMagicRidesFirstFrame: an empty log stays zero bytes until
// the first append, which writes the magic and the frame together; a
// log whose only bytes are a torn magic is an empty log again.
func TestJournalMagicRidesFirstFrame(t *testing.T) {
	for name, initial := range map[string][]byte{"absent": nil, "zero bytes": {}, "torn magic": binMagic[:3]} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, journalName)
			if initial != nil {
				writeJournal(t, dir, initial)
			}
			var recs []record
			j, err := openJournal(dir, true, collect(&recs))
			if err != nil {
				t.Fatal(err)
			}
			defer j.close()
			if len(recs) != 0 || !j.empty {
				t.Fatalf("recs %+v empty %v, want an empty log", recs, j.empty)
			}
			if b, _ := os.ReadFile(path); len(b) != 0 {
				t.Fatalf("open left %d bytes in an empty log", len(b))
			}
			for _, r := range tickRecords(5, 9) {
				if err := j.append(r); err != nil {
					t.Fatal(err)
				}
			}
			b, _ := os.ReadFile(path)
			if want := encodeBinLog(tickRecords(5, 9)); !bytes.Equal(b, want) {
				t.Fatalf("log = %q, want magic once then two frames %q", b, want)
			}
		})
	}
}
