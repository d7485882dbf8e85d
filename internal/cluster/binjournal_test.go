package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
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
		{Seq: 1, Op: opAdmit, T: 1, Server: 2, Start: 5, VM: &model.VM{
			ID: 7, Type: "m5.xlarge", Demand: model.Resources{CPU: 2.5, Mem: 7.25}, Start: 5, End: 34,
		}},
		{Seq: 2, Op: opTick, T: 6},
		{Seq: 3, Op: opMigrate, T: 7, ID: 7, Server: 1, From: 2, Handoff: 9,
			Policy: "min-migration-time", Saved: 120.5, Cost: 3.625},
		{Seq: 4, Op: opRelease, T: 9, ID: 7},
		// Unicode type string and awkward floats must survive the trip.
		{Seq: 5, Op: opAdmit, T: 10, Server: 0, Start: 10, VM: &model.VM{
			ID: 8, Type: "gpu-模型", Demand: model.Resources{CPU: math.SmallestNonzeroFloat64, Mem: 1e308}, Start: 10, End: 11,
		}},
	}
}

func encodeBinLog(t *testing.T, recs []record) []byte {
	t.Helper()
	buf := append([]byte{}, binMagic...)
	var err error
	for _, r := range recs {
		if buf, err = appendBinaryFrame(buf, r); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

// TestBinaryCodecRoundTrip pins every op's encode/decode loop: the
// records read back from a framed log are deep-equal to what was
// written.
func TestBinaryCodecRoundTrip(t *testing.T) {
	want := binTestRecords()
	buf := encodeBinLog(t, want)
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
}

// TestBinaryReaderTornTail checks the torn-tail taxonomy byte by byte:
// every strict prefix of the final frame is an interrupted write, so the
// reader must return the preceding records and a clean offset that cuts
// the tail — never an error.
func TestBinaryReaderTornTail(t *testing.T) {
	recs := binTestRecords()
	buf := encodeBinLog(t, recs)
	prefix := encodeBinLog(t, recs[:len(recs)-1])
	for cut := len(prefix) + 1; cut < len(buf); cut++ {
		got, clean, err := readBinaryRecords(buf[:cut])
		if err != nil {
			t.Fatalf("cut at %d: torn tail must not error: %v", cut, err)
		}
		if clean != int64(len(prefix)) {
			t.Fatalf("cut at %d: clean = %d, want %d", cut, clean, len(prefix))
		}
		if len(got) != len(recs)-1 {
			t.Fatalf("cut at %d: %d records, want %d", cut, len(got), len(recs)-1)
		}
	}
}

// TestBinaryReaderCorruption checks the refusal half of the taxonomy:
// mid-log damage and destroyed length prefixes are lost history, not
// torn tails.
func TestBinaryReaderCorruption(t *testing.T) {
	recs := binTestRecords()
	buf := encodeBinLog(t, recs)

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
		prefix := encodeBinLog(t, recs[:len(recs)-1])
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
		mut := encodeBinLog(t, recs[:1])
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

// legacyFixture is a journal directory image as the retired JSON writer
// would have left it after a crash: an optional snapshot, the JSON-lines
// log, and the state digest the history restores to.
type legacyFixture struct {
	snapshot []byte // nil: no snapshot.json
	log      []byte
	digest   string
}

func (f legacyFixture) materialize(t *testing.T) string {
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

// legacyFixtures runs the durability script on a journaled cluster and
// re-encodes what it wrote as legacy directories: the whole history as
// one JSON log; the same behind a mid-run snapshot with the records that
// snapshot already covers still in the log (a crash between snapshot
// rename and truncation — replay must skip them by seq); and each of
// those with a torn final line.
func legacyFixtures(t *testing.T, cfg Config) map[string]legacyFixture {
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
	log := jsonLines(t, append(covered, rest...))
	torn := append(append([]byte{}, log...), `{"seq":99,"op":"admit","t":30,"vm":{"id":9,"dem`...)
	return map[string]legacyFixture{
		"log only":                   {log: log, digest: digest},
		"log only, torn tail":        {log: torn, digest: digest},
		"stale records":              {snapshot: snapshot, log: log, digest: digest},
		"stale records, torn tail":   {snapshot: snapshot, log: torn, digest: digest},
		"snapshot covers everything": {snapshot: snapshot, log: jsonLines(t, covered), digest: midDigest},
	}
}

// TestLegacyJSONJournalUpgradesAtOpen pins the one-way upgrade: a
// directory holding a JSON-lines journal restores to the digest its
// history describes, is binary on disk by the time Open returns (the
// upgrade snapshot emptied the log, and nothing ever appends JSON), and
// reopens to the same digest.
func TestLegacyJSONJournalUpgradesAtOpen(t *testing.T) {
	cfg := Config{Servers: testServers(6), IdleTimeout: 2, DisableFsync: true, SnapshotEvery: -1}
	for name, fx := range legacyFixtures(t, cfg) {
		t.Run(name, func(t *testing.T) {
			cfg := cfg
			cfg.Dir = fx.materialize(t)
			path := filepath.Join(cfg.Dir, journalName)
			c := mustOpen(t, cfg)
			got, err := c.StateDigest()
			if err != nil {
				t.Fatal(err)
			}
			if got != fx.digest {
				t.Fatalf("upgraded digest %s, want the writer's %s", got, fx.digest)
			}
			if jb, _ := os.ReadFile(path); len(jb) != 0 {
				t.Fatalf("journal holds %d bytes after the upgrade, want an empty log: %q", len(jb), jb)
			}
			if _, err := os.Stat(filepath.Join(cfg.Dir, snapshotName)); err != nil {
				t.Fatalf("upgrade left no snapshot: %v", err)
			}
			// The next mutation starts a binary log.
			mustAdmit(t, c, api.AdmitRequest{ID: 50, Demand: model.Resources{CPU: 1, Mem: 1}, DurationMinutes: 5})
			jb, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if recs, clean, err := readBinaryRecords(jb); !bytes.HasPrefix(jb, binMagic) || err != nil ||
				clean != int64(len(jb)) || len(recs) != 1 || bytes.Contains(jb, []byte(`"seq"`)) {
				t.Fatalf("post-upgrade journal is not one clean binary frame: %q (err %v)", jb, err)
			}
			want, err := c.StateDigest()
			if err != nil {
				t.Fatal(err)
			}
			c.crash()
			for round := 0; round < 2; round++ {
				r := mustOpen(t, cfg)
				got, err := r.StateDigest()
				if err != nil {
					t.Fatal(err)
				}
				if err := r.Close(); err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("reopen %d: digest %s, want %s", round, got, want)
				}
			}
		})
	}
}

// TestLegacyUpgradeFailureLeavesDirectoryUntouched: when the upgrade
// snapshot cannot be written, Open fails and the JSON log — torn tail
// included — is byte-identical, so a later Open can still upgrade it.
func TestLegacyUpgradeFailureLeavesDirectoryUntouched(t *testing.T) {
	cfg := Config{Servers: testServers(6), IdleTimeout: 2, DisableFsync: true, SnapshotEvery: -1}
	fx := legacyFixtures(t, cfg)["stale records, torn tail"]
	cfg.Dir = fx.materialize(t)
	// A directory squatting on the snapshot's temp name fails os.Create.
	blocker := filepath.Join(cfg.Dir, snapshotName+".tmp")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	if c, err := Open(cfg); err == nil {
		c.Close()
		t.Fatal("Open succeeded although the upgrade snapshot could not be written")
	}
	if jb, _ := os.ReadFile(filepath.Join(cfg.Dir, journalName)); !bytes.Equal(jb, fx.log) {
		t.Fatalf("failed upgrade rewrote the JSON log:\n got %q\nwant %q", jb, fx.log)
	}
	if sb, _ := os.ReadFile(filepath.Join(cfg.Dir, snapshotName)); !bytes.Equal(sb, fx.snapshot) {
		t.Fatal("failed upgrade rewrote snapshot.json")
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	c := mustOpen(t, cfg)
	defer c.Close()
	if got, _ := c.StateDigest(); got != fx.digest {
		t.Fatalf("digest after the retried upgrade %s, want %s", got, fx.digest)
	}
}

// TestLegacyJournalMidLogCorruptionRefused: damage before the tail of a
// JSON log is lost history, exactly as in a binary one.
func TestLegacyJournalMidLogCorruptionRefused(t *testing.T) {
	cfg := Config{Servers: testServers(6), IdleTimeout: 2, DisableFsync: true, SnapshotEvery: -1}
	fx := legacyFixtures(t, cfg)["log only"]
	i := bytes.IndexByte(fx.log, '\n') + 1
	fx.log = append(append(append([]byte{}, fx.log[:i]...), "{\"seq\":GARBAGE\n"...), fx.log[i:]...)
	cfg.Dir = fx.materialize(t)
	if _, err := Open(cfg); !errors.Is(err, ErrCorruptJournal) {
		t.Fatalf("mid-log corruption: err = %v, want ErrCorruptJournal", err)
	}
	if jb, _ := os.ReadFile(filepath.Join(cfg.Dir, journalName)); !bytes.Equal(jb, fx.log) {
		t.Fatal("a refused directory was modified")
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
