package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// realJournal and realMigrationJournal are the legacy JSON-lines
// encodings of the genuine histories in fuzz_binary_test.go: what the
// retired JSON writer would have logged for them.
func realJournal(tb testing.TB) []byte { return legacyJSON(tb, realBinaryJournal(tb)) }

func realMigrationJournal(tb testing.TB) []byte {
	return legacyJSON(tb, realBinaryMigrationJournal(tb))
}

func mustOpenTB(tb testing.TB, cfg Config) *Cluster {
	tb.Helper()
	c, err := Open(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// FuzzJournalReplay feeds arbitrary bytes to the journal reopen path,
// seeded with legacy JSON-lines logs so the fuzzer keeps exploring the
// read-only JSON decoder and the upgrade at open: whatever the file
// holds, Open must either restore a consistent state (proved by a
// digest-stable close/reopen round trip) or refuse with
// ErrCorruptJournal — never panic, never silently half-restore.
func FuzzJournalReplay(f *testing.F) {
	base := realJournal(f)
	f.Add(base)
	f.Add([]byte{})
	f.Add([]byte("\n\n\n"))
	// Torn tail: the final record loses its last bytes (and its newline) —
	// an interrupted write, which reopen must truncate away, not refuse.
	if len(base) > 7 {
		f.Add(base[:len(base)-7])
	}
	// Mid-log corruption: garbage with history after it — lost records,
	// which reopen must refuse.
	if i := bytes.IndexByte(base, '\n'); i >= 0 {
		mut := append([]byte{}, base[:i+1]...)
		mut = append(mut, []byte("{\"seq\":GARBAGE\n")...)
		mut = append(mut, base[i+1:]...)
		f.Add(mut)
	}
	// Duplicate departure: a second release of a VM the log already
	// released — replay must refuse rather than corrupt the ledgers.
	f.Add(append(append([]byte{}, base...),
		[]byte(`{"seq":99,"op":"release","t":9,"id":1}`+"\n")...))
	// Admit with an interval that fails validation (end before start).
	f.Add([]byte(`{"seq":1,"op":"admit","t":2,"vm":{"id":9,"demand":{"cpu":1,"mem":1},"start":5,"end":3},"server":0,"start":5}` + "\n"))
	// Admit whose departure event time (end+1) would overflow MaxInt.
	f.Add([]byte(fmt.Sprintf(`{"seq":1,"op":"admit","t":1,"vm":{"id":9,"demand":{"cpu":1,"mem":1},"start":%d,"end":%d},"server":0,"start":%d}`+"\n",
		math.MaxInt-1, math.MaxInt, math.MaxInt-1)))
	// A migrate of a VM that was never admitted: opMigrate is a known op
	// now, so replay must refuse the inconsistent history, not panic.
	f.Add([]byte(`{"seq":1,"op":"migrate","t":3}` + "\n" + `{"seq":2,"op":"tick","t":4}` + "\n"))
	// A genuine history ending in a live migration must replay cleanly.
	migBase := realMigrationJournal(f)
	f.Add(migBase)
	// The same history with a second migrate whose recorded handoff cannot
	// reproduce: replay must refuse the cross-check, never half-apply.
	f.Add(append(append([]byte{}, migBase...),
		[]byte(`{"seq":99,"op":"migrate","t":6,"id":1,"server":2,"from":0,"handoff":3}`+"\n")...))
	// A migrate onto an out-of-range server index.
	f.Add(append(append([]byte{}, migBase...),
		[]byte(`{"seq":99,"op":"migrate","t":6,"id":1,"server":40,"from":0,"handoff":7}`+"\n")...))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		cfg := Config{Servers: testServers(4), IdleTimeout: 2, Dir: dir, SnapshotEvery: -1}
		c, err := Open(cfg)
		if err != nil {
			if !errors.Is(err, ErrCorruptJournal) {
				t.Fatalf("refusal must wrap ErrCorruptJournal, got: %v", err)
			}
			return
		}
		// The journal was accepted: the restored state must be coherent
		// enough to survive a full snapshot/reopen round trip unchanged.
		want, err := c.StateDigest()
		if err != nil {
			t.Fatalf("restored cluster cannot serve state: %v", err)
		}
		if err := c.Close(); err != nil {
			t.Fatalf("closing restored cluster: %v", err)
		}
		c2, err := Open(cfg)
		if err != nil {
			t.Fatalf("reopening after clean close: %v", err)
		}
		got, err := c2.StateDigest()
		if err != nil {
			t.Fatal(err)
		}
		if err := c2.Close(); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("state digest changed across close/reopen: %s != %s", got, want)
		}
	})
}
