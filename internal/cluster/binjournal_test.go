package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"vmalloc/internal/api"
	"vmalloc/internal/model"
)

func binTestRecords() []record {
	return []record{
		{Seq: 1, Op: opAdmit, T: 1, Server: 2, Start: 5, VM: model.VM{
			ID: 7, Type: "m5.xlarge", Demand: model.Resources{CPU: 2.5, Mem: 7.25}, Start: 5, End: 34,
		}},
		{Seq: 2, Op: opTick, T: 6},
		{Seq: 3, Op: opMigrate, T: 7, ID: 7, Server: 1, From: 2, Handoff: 9,
			Policy: "min-migration-time", Saved: 120.5, Cost: 3.625},
		{Seq: 4, Op: opRelease, T: 9, ID: 7},
		// Unicode type string and awkward floats must survive the trip.
		{Seq: 5, Op: opAdmit, T: 10, Server: 0, Start: 10, VM: model.VM{
			ID: 8, Type: "gpu-模型", Demand: model.Resources{CPU: math.SmallestNonzeroFloat64, Mem: 1e308}, Start: 10, End: 11,
		}},
	}
}

func encodeBinLog(recs []record) []byte {
	buf := append([]byte{}, binMagic...)
	for _, r := range recs {
		buf = appendBinaryFrame(buf, r)
	}
	return buf
}

// TestBinaryCodecRoundTrip pins every op's encode/decode loop: the
// records read back from a framed log are deep-equal to what was
// written.
func TestBinaryCodecRoundTrip(t *testing.T) {
	want := binTestRecords()
	buf := encodeBinLog(want)
	got, clean, err := readBinaryRecords(buf)
	if err != nil {
		t.Fatal(err)
	}
	if clean != int64(len(buf)) {
		t.Fatalf("clean offset %d, want %d", clean, len(buf))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if cap(got) != len(want) {
		t.Fatalf("records slice has capacity %d for %d records: want it sized once by the frame count", cap(got), len(want))
	}
}

// TestBinaryReaderTornTail checks the torn-tail taxonomy byte by byte:
// every strict prefix of the final frame is an interrupted write, so the
// reader must return the preceding records and a clean offset that cuts
// the tail — never an error.
func TestBinaryReaderTornTail(t *testing.T) {
	recs := binTestRecords()
	buf := encodeBinLog(recs)
	prefix := encodeBinLog(recs[:len(recs)-1])
	for cut := len(prefix) + 1; cut < len(buf); cut++ {
		got, clean, err := readBinaryRecords(buf[:cut])
		if err != nil {
			t.Fatalf("cut at %d: torn tail must not error: %v", cut, err)
		}
		if clean != int64(len(prefix)) {
			t.Fatalf("cut at %d: clean = %d, want %d", cut, clean, len(prefix))
		}
		if len(got) != len(recs)-1 || cap(got) != len(got) {
			t.Fatalf("cut at %d: %d records (capacity %d), want %d", cut, len(got), cap(got), len(recs)-1)
		}
	}
}

// TestBinaryReaderCorruption checks the refusal half of the taxonomy:
// mid-log damage and destroyed length prefixes are lost history, not
// torn tails.
func TestBinaryReaderCorruption(t *testing.T) {
	recs := binTestRecords()
	buf := encodeBinLog(recs)

	t.Run("flipped payload byte mid-log", func(t *testing.T) {
		mut := append([]byte{}, buf...)
		mut[len(binMagic)+8+2] ^= 0xff // inside the first frame's payload
		if _, _, err := readBinaryRecords(mut); !errors.Is(err, ErrCorruptJournal) {
			t.Fatalf("want ErrCorruptJournal, got %v", err)
		}
	})
	t.Run("absurd length prefix", func(t *testing.T) {
		mut := append([]byte{}, buf...)
		binary.LittleEndian.PutUint32(mut[len(binMagic):], maxBinRecordLen+1)
		if _, _, err := readBinaryRecords(mut); !errors.Is(err, ErrCorruptJournal) {
			t.Fatalf("want ErrCorruptJournal, got %v", err)
		}
	})
	t.Run("flipped final-frame CRC is torn", func(t *testing.T) {
		mut := append([]byte{}, buf...)
		prefix := encodeBinLog(recs[:len(recs)-1])
		mut[len(prefix)+4] ^= 0xff // final frame's CRC field
		got, clean, err := readBinaryRecords(mut)
		if err != nil {
			t.Fatalf("final-frame CRC damage is a torn write, got %v", err)
		}
		if clean != int64(len(prefix)) || len(got) != len(recs)-1 {
			t.Fatalf("clean %d records %d, want %d / %d", clean, len(got), len(prefix), len(recs)-1)
		}
	})
	t.Run("valid frame with undecodable payload", func(t *testing.T) {
		mut := encodeBinLog(recs[:1])
		mut = appendRawFrame(mut, []byte{0x01, 0xFF}) // truncated varints
		mut = appendRawFrame(mut, []byte{0x06, 0x01, 0x02})
		if _, _, err := readBinaryRecords(mut); !errors.Is(err, ErrCorruptJournal) {
			t.Fatalf("want ErrCorruptJournal, got %v", err)
		}
	})
}

// appendRawFrame frames arbitrary payload bytes with a correct CRC, for
// building frames the decoder must reject on content.
func appendRawFrame(buf, payload []byte) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// replayFixture is a journal directory image as a crashed writer leaves
// it: an optional snapshot, the log, and the state digest the history
// restores to.
type replayFixture struct {
	snapshot []byte // nil: no snapshot.json
	log      []byte
	digest   string
}

func (f replayFixture) materialize(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	writeJournal(t, dir, f.log)
	if f.snapshot != nil {
		if err := os.WriteFile(filepath.Join(dir, snapshotName), f.snapshot, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// replayFixtures runs the durability script on a journaled cluster and
// re-encodes what it wrote as crash images: the whole history as one
// log; the same behind a mid-run snapshot with the records that
// snapshot already covers still in the log (a crash between snapshot
// rename and truncation — replay must skip them by seq); each of those
// with a torn final frame; and a snapshot that covers the whole log.
func replayFixtures(t *testing.T, cfg Config) map[string]replayFixture {
	t.Helper()
	cfg.Dir = t.TempDir()
	cfg.SnapshotEvery = -1
	path := filepath.Join(cfg.Dir, journalName)
	ops := durabilityOps()
	c := mustOpen(t, cfg)
	applyOps(t, c, ops[:len(ops)/2])
	covered, _, err := readRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	midDigest, err := c.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}
	snapshot, err := os.ReadFile(filepath.Join(cfg.Dir, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, c, ops[len(ops)/2:])
	rest, _, err := readRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	digest, err := c.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	c.crash()
	if len(covered) == 0 || len(rest) == 0 {
		t.Fatalf("script journaled %d + %d records around the snapshot, want both non-empty", len(covered), len(rest))
	}
	log := encodeBinLog(append(covered, rest...))
	next := encodeBinLog(binTestRecords()[:1])[len(binMagic):]
	torn := append(append([]byte{}, log...), next[:len(next)-5]...)
	return map[string]replayFixture{
		"log only":                   {log: log, digest: digest},
		"log only, torn tail":        {log: torn, digest: digest},
		"stale records":              {snapshot: snapshot, log: log, digest: digest},
		"stale records, torn tail":   {snapshot: snapshot, log: torn, digest: digest},
		"snapshot covers everything": {snapshot: snapshot, log: encodeBinLog(covered), digest: midDigest},
	}
}

// TestReopenSkipsCoveredRecords: every crash image restores the digest
// its writer had — stale records skipped by seq, a torn final frame
// dropped — and so does the reopen after it (once after a crash, once
// after a clean Close compacted the log).
func TestReopenSkipsCoveredRecords(t *testing.T) {
	cfg := Config{Servers: testServers(6), IdleTimeout: 2, DisableFsync: true, SnapshotEvery: -1}
	for name, fx := range replayFixtures(t, cfg) {
		t.Run(name, func(t *testing.T) {
			cfg := cfg
			cfg.Dir = fx.materialize(t)
			for round := 0; round < 3; round++ {
				c := mustOpen(t, cfg)
				got, err := c.StateDigest()
				if err != nil {
					t.Fatal(err)
				}
				if round == 0 {
					c.crash()
				} else if err := c.Close(); err != nil {
					t.Fatal(err)
				}
				if got != fx.digest {
					t.Fatalf("open %d: digest %s, want the writer's %s", round, got, fx.digest)
				}
			}
		})
	}
}

// TestBinaryJournalMidLogCorruptionRefused: a flipped byte inside an
// early frame is lost history — Open refuses, and neither file changes.
func TestBinaryJournalMidLogCorruptionRefused(t *testing.T) {
	cfg := Config{Servers: testServers(6), IdleTimeout: 2, DisableFsync: true, SnapshotEvery: -1}
	fx := replayFixtures(t, cfg)["stale records"]
	fx.log[len(binMagic)+8+1] ^= 0x40 // inside the first frame's payload
	cfg.Dir = fx.materialize(t)
	if _, err := Open(cfg); !errors.Is(err, ErrCorruptJournal) {
		t.Fatalf("mid-log corruption: err = %v, want ErrCorruptJournal", err)
	}
	if jb, _ := os.ReadFile(filepath.Join(cfg.Dir, journalName)); !bytes.Equal(jb, fx.log) {
		t.Fatal("a refused directory's journal was modified")
	}
	if sb, _ := os.ReadFile(filepath.Join(cfg.Dir, snapshotName)); !bytes.Equal(sb, fx.snapshot) {
		t.Fatal("a refused directory's snapshot was modified")
	}
}

// TestJournalV1Golden pins version 1's bytes: binTestRecords, one per op,
// must encode to testdata/journal_v1.golden exactly, so retyping a record
// field or renumbering an op cannot move the on-disk format.
func TestJournalV1Golden(t *testing.T) {
	const goldenPath = "testdata/journal_v1.golden"
	got := hex.Dump(encodeBinLog(binTestRecords()))
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("binary journal bytes moved from %s:\n%s", goldenPath, firstDiff(string(want), got))
	}
}

// foreignJSONLog is a journal as builds before PR 12 wrote it, one JSON
// record per line.
const foreignJSONLog = `{"seq":1,"op":"admit","t":1,"vm":{"id":1,"demand":{"cpu":2,"mem":3},"start":1,"end":10},"server":0,"start":1}
{"seq":2,"op":"tick","t":5}
`

// TestForeignJournalRefused: a log that does not open with binMagic — a
// pre-PR-12 JSON-lines log, or a future version — is refused with
// ErrCorruptJournal, and Open leaves the directory as it found it.
func TestForeignJournalRefused(t *testing.T) {
	for name, log := range map[string]string{"JSON lines": foreignJSONLog, "version 2": "\x00vmjl2"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			writeJournal(t, dir, []byte(log))
			if c, err := Open(Config{Servers: testServers(4), IdleTimeout: 2, Dir: dir, DisableFsync: true}); !errors.Is(err, ErrCorruptJournal) {
				if err == nil {
					c.Close()
				}
				t.Fatalf("Open = %v, want ErrCorruptJournal", err)
			}
			if jb, _ := os.ReadFile(filepath.Join(dir, journalName)); string(jb) != log {
				t.Fatalf("a refused journal was modified: %q", jb)
			}
			if _, err := os.Stat(filepath.Join(dir, snapshotName)); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("a refused directory gained a snapshot (stat: %v)", err)
			}
		})
	}
}

// TestJournalAppendAllocFree: journaling an admission allocates nothing —
// the record carries its VM by value and the frame reuses j.enc.
func TestJournalAppendAllocFree(t *testing.T) {
	j, _, _, err := openJournal(t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	vm := binTestRecords()[0].VM
	allocs := testing.AllocsPerRun(100, func() {
		if err := j.append(record{Op: opAdmit, T: 1, VM: vm, Server: 2, Start: 5}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("journal.append of an admit record: %v allocs, want 0", allocs)
	}
}

// TestZeroByteJournalIsAnEmptyLog is the regression test for
// compaction's second write: compaction is a single truncate, so a valid
// snapshot beside a zero-byte journal is the normal post-compaction
// state — and the state a crash right after the truncate leaves. The
// next admit must land behind a magic so the following Open accepts it.
func TestZeroByteJournalIsAnEmptyLog(t *testing.T) {
	cfg := Config{Servers: testServers(4), IdleTimeout: 2, Dir: t.TempDir(), SnapshotEvery: -1, DisableFsync: true}
	path := filepath.Join(cfg.Dir, journalName)
	c := mustOpen(t, cfg)
	mustAdmit(t, c, api.AdmitRequest{ID: 1, Demand: model.Resources{CPU: 2, Mem: 3}, Start: 1, DurationMinutes: 30})
	if err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if jb, err := os.ReadFile(path); err != nil || len(jb) != 0 {
		t.Fatalf("compaction left %d journal bytes (err %v), want a bare truncate", len(jb), err)
	}
	c.crash()

	c = mustOpen(t, cfg)
	mustAdmit(t, c, api.AdmitRequest{ID: 2, Demand: model.Resources{CPU: 1, Mem: 2}, Start: 2, DurationMinutes: 30})
	want, err := c.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	c.crash()
	if jb, _ := os.ReadFile(path); !bytes.HasPrefix(jb, binMagic) {
		t.Fatalf("first frame after compaction went out without the magic: %q", jb)
	}

	c = mustOpen(t, cfg)
	defer c.Close()
	if got, _ := c.StateDigest(); got != want {
		t.Fatalf("reopened digest %s, want %s", got, want)
	}
	if n := len(c.State().VMs); n != 2 {
		t.Fatalf("reopened fleet holds %d VMs, want 2", n)
	}
}

// TestGroupCommitCounters drives sequential admits through a real
// fsync-on journal and checks the group-commit accounting: every batch
// commit is acknowledged by a flush, and the flush count never exceeds
// the commit count. (Concurrent admits micro-batch into fewer commits,
// so the sequential stream is the deterministic way to count; actual
// fsync sharing under concurrency is pinned by
// TestGroupCommitCrashImage and the benchmark's
// cluster.group_commit_vms_per_s_c32 probe.)
func TestGroupCommitCounters(t *testing.T) {
	dir := t.TempDir()
	c := mustOpenTB(t, Config{Servers: testServers(8), IdleTimeout: 2, Dir: dir, SnapshotEvery: -1})
	const n = 24
	for i := 0; i < n; i++ {
		if _, err := c.Admit(context.Background(), []api.AdmitRequest{
			{ID: i + 1, Demand: model.Resources{CPU: 0.5, Mem: 0.5}, Start: 1, DurationMinutes: 10},
		}); err != nil {
			t.Fatal(err)
		}
	}
	groups, grouped := c.jr.groups.Load(), c.jr.grouped.Load()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if grouped < n {
		t.Fatalf("grouped commits = %d, want >= %d (one per sequential batch)", grouped, n)
	}
	if groups == 0 || groups > grouped {
		t.Fatalf("fsync groups = %d, grouped commits = %d: want 0 < groups <= grouped", groups, grouped)
	}
}
