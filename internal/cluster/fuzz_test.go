package cluster

import (
	"errors"
	"math"
	"testing"

	"vmalloc/internal/model"
)

func mustOpenTB(tb testing.TB, cfg Config) *Cluster {
	tb.Helper()
	c, err := Open(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// fuzzReopen is both journal fuzzers' body: whatever log the journal
// file holds, Open must either restore a consistent state (proved by a
// digest-stable close/reopen round trip) or refuse with
// ErrCorruptJournal — never panic, never silently half-restore.
func fuzzReopen(t *testing.T, log []byte) {
	dir := t.TempDir()
	writeJournal(t, dir, log)
	cfg := Config{Servers: testServers(4), IdleTimeout: 2, Dir: dir, SnapshotEvery: -1, MigrationCostPerGB: 0.5}
	c, err := Open(cfg)
	if err != nil {
		if !errors.Is(err, ErrCorruptJournal) {
			t.Fatalf("refusal must wrap ErrCorruptJournal, got: %v", err)
		}
		return
	}
	want, err := stateDigest(c)
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
	got, err := stateDigest(c2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("state digest changed across close/reopen: %s != %s", got, want)
	}
}

// payloadRun is FuzzJournalReplay's input format: record payloads, each
// behind a one-byte length.
func payloadRun(tb testing.TB, recs ...record) []byte {
	tb.Helper()
	var run []byte
	for _, r := range recs {
		p := encodeBinaryRecord(nil, r)
		if len(p) > math.MaxUint8 {
			tb.Fatalf("record %+v encodes to %d bytes, more than a length byte holds", r, len(p))
		}
		run = append(append(run, byte(len(p))), p...)
	}
	return run
}

// framePayloads turns a payload run into a journal: the magic, then each
// payload in a frame with its true CRC. A final payload shorter than its
// length byte claims is framed as what is left.
func framePayloads(run []byte) []byte {
	log := append([]byte{}, binMagic...)
	for len(run) > 0 {
		n := min(int(run[0]), len(run)-1)
		log = appendRawFrame(log, run[1:1+n])
		run = run[1+n:]
	}
	return log
}

// historyRun re-encodes a genuine journal as a payload run, and returns
// the seq a record appended to it carries.
func historyRun(tb testing.TB, log []byte) ([]byte, int64) {
	tb.Helper()
	recs, clean, err := readLog(log)
	if err != nil || clean != int64(len(log)) || len(recs) == 0 {
		tb.Fatalf("history is not a clean non-empty journal: %d records, clean %d of %d, err %v", len(recs), clean, len(log), err)
	}
	return payloadRun(tb, recs...), recs[len(recs)-1].Seq + 1
}

// FuzzJournalReplay fuzzes replay on the real format: its input is a run
// of record payloads, each framed with a correct CRC, so mutations reach
// decodeBinaryRecord and apply's cross-checks instead of failing at the
// checksum. A record appended to a history carries the next seq, so it
// reaches apply rather than the seq check.
func FuzzJournalReplay(f *testing.F) {
	history, next := historyRun(f, realBinaryJournal(f))
	migHistory, migNext := historyRun(f, realBinaryMigrationJournal(f))
	then := func(run []byte, recs ...record) []byte {
		return append(append([]byte{}, run...), payloadRun(f, recs...)...)
	}
	vm := func(start, end int) model.VM {
		return model.VM{ID: 9, Demand: model.Resources{CPU: 1, Mem: 1}, Start: start, End: end}
	}
	// Genuine histories, one ending in a live migration: must replay.
	f.Add(history)
	f.Add(migHistory)
	f.Add([]byte{})
	// A second release of a VM the log already released: replay must
	// refuse rather than corrupt the ledgers.
	f.Add(then(history, record{Seq: next, Op: opRelease, T: 9, ID: 1}))
	// An admit whose interval fails validation (end before start).
	f.Add(payloadRun(f, record{Seq: 1, Op: opAdmit, T: 2, VM: vm(5, 3), Start: 5}))
	// An admit whose departure event time (end+1) would overflow MaxInt.
	f.Add(payloadRun(f, record{Seq: 1, Op: opAdmit, T: 1, VM: vm(math.MaxInt-1, math.MaxInt), Start: math.MaxInt - 1}))
	// A migrate of a VM that was never admitted.
	f.Add(payloadRun(f, record{Seq: 1, Op: opMigrate, T: 3}, record{Seq: 2, Op: opTick, T: 4}))
	// A second migrate whose recorded handoff cannot reproduce: replay
	// must refuse the cross-check, never half-apply.
	f.Add(then(migHistory, record{Seq: migNext, Op: opMigrate, T: 6, ID: 1, Server: 2, Handoff: 3}))
	// A migrate onto an out-of-range server index.
	f.Add(then(migHistory, record{Seq: migNext, Op: opMigrate, T: 6, ID: 1, Server: 40, Handoff: 7}))
	// An adoption after the history.
	f.Add(then(history, record{Seq: next, Op: opAdopt, T: 9, VM: vm(8, 20), Start: 8, Handoff: 10}))
	// An unknown op code, and a tick with a byte after its last field (the
	// seq is one uvarint byte).
	f.Add(append(append([]byte{}, history...), 3, byte(next), 6, 18))
	f.Add(append(append([]byte{}, history...), 4, byte(next), byte(opTick), 18, 0))

	f.Fuzz(func(t *testing.T, run []byte) {
		fuzzReopen(t, framePayloads(run))
	})
}
