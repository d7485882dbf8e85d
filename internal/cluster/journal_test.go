package cluster

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
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

// TestCommitAfterFailedFlush: a failed flush stays failed in the journal.
// After a failed fsync the kernel may drop the dirty pages it held, so a
// later successful fsync does not cover the records before it: every
// commit returns the flush's error until a snapshot, which captures the
// state those records described, succeeds and clears it.
func TestCommitAfterFailedFlush(t *testing.T) {
	j, err := openJournal(t.TempDir(), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	good := j.f
	broken, err := os.Open(good.Name())
	if err != nil {
		t.Fatal(err)
	}
	broken.Close() // Sync on a closed file fails

	if err := j.append(record{Op: opTick, T: 1}); err != nil {
		t.Fatal(err)
	}
	j.f = broken
	if err := j.commit(); err == nil {
		t.Fatal("commit through a failing fsync returned nil")
	}
	j.f = good
	if err := j.append(record{Op: opTick, T: 2}); err != nil {
		t.Fatal(err)
	}
	if err := j.commit(); err == nil {
		t.Fatal("commit after a failed flush returned nil: the record behind the failed flush was acknowledged")
	}
	if err := j.snapshot(&snapshotFile{}); err != nil {
		t.Fatal(err)
	}
	if err := j.append(record{Op: opTick, T: 3}); err != nil {
		t.Fatal(err)
	}
	if err := j.commit(); err != nil {
		t.Fatalf("commit after a snapshot: %v, want nil", err)
	}
}

// TestCommitConcurrentGroups: callers that append under one mutex (as
// under the cluster's) and commit outside it are each acknowledged by one
// flush, and the flushes never outnumber the commits.
func TestCommitConcurrentGroups(t *testing.T) {
	j, err := openJournal(t.TempDir(), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	const callers = 32
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			err := j.append(record{Op: opTick, T: i})
			mu.Unlock()
			if err == nil {
				err = j.commit()
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	groups, grouped := j.groups.Load(), j.grouped.Load()
	if grouped != callers || groups == 0 || groups > grouped {
		t.Fatalf("%d fsync groups, %d grouped commits: want 0 < groups <= grouped = %d", groups, grouped, callers)
	}
}
