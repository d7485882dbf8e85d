package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
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

// readLog streams a whole log held in memory through the journal's record
// reader, returning a copy of every clean record and the clean offset.
func readLog(b []byte) ([]record, int64, error) {
	var recs []record
	clean, err := readBinaryRecords(bytes.NewReader(b), int64(len(b)), collect(&recs))
	return recs, clean, err
}

// longTickLog is a tick-only log of n records, seqs and clock 1..n.
func longTickLog(n int) []byte {
	ts := make([]int, n)
	for i := range ts {
		ts[i] = i + 1
	}
	return encodeBinLog(tickRecords(ts...))
}

// frameStarts walks log's length headers: the offset of every whole
// frame, then the offset where the whole frames end.
func frameStarts(log []byte) []int {
	offs := []int{len(binMagic)}
	for off := len(binMagic); len(log)-off >= 8; {
		off += 8 + int(binary.LittleEndian.Uint32(log[off:]))
		if off > len(log) {
			break
		}
		offs = append(offs, off)
	}
	return offs
}

// straddler returns the index of the frame that starts before byte edge
// and ends after it.
func straddler(tb testing.TB, offs []int, edge int) int {
	tb.Helper()
	for i := 0; i+1 < len(offs); i++ {
		if offs[i] < edge && offs[i+1] > edge {
			return i
		}
	}
	tb.Fatalf("no frame straddles byte %d", edge)
	return 0
}

// openLog makes log a journal directory's only file and opens a cluster on
// it. It returns the restored state digest (empty on a refusal), the file
// as Open left it, and Open's error. The cluster is crashed, not closed,
// so no snapshot compacts the file.
func openLog(t *testing.T, log []byte) (string, []byte, error) {
	t.Helper()
	dir := t.TempDir()
	path := writeJournal(t, dir, log)
	c, err := Open(Config{Servers: testServers(4), IdleTimeout: 2, Dir: dir, SnapshotEvery: -1,
		MigrationCostPerGB: 0.5, DisableFsync: true})
	var digest string
	if err == nil {
		if digest, err = c.StateDigest(); err != nil {
			t.Fatal(err)
		}
		c.crash()
	}
	after, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	return digest, after, err
}

// checkTorn: the bytes of log past last are a torn tail. The reader stops
// cleanly at last with the records before it, and Open restores want, the
// digest of log[:last], and truncates the file to last.
func checkTorn(t *testing.T, log []byte, last int, want string) {
	t.Helper()
	prefix, _, err := readLog(log[:last])
	if err != nil {
		t.Fatal(err)
	}
	recs, clean, err := readLog(log)
	if err != nil || clean != int64(last) || len(recs) != len(prefix) {
		t.Fatalf("%d-byte log: reader returned %d records clean to %d (err %v), want %d records clean to %d",
			len(log), len(recs), clean, err, len(prefix), last)
	}
	got, after, err := openLog(t, log)
	if err != nil {
		t.Fatalf("%d-byte log: Open refused a torn tail: %v", len(log), err)
	}
	if got != want {
		t.Fatalf("%d-byte log: digest %s, want %s (the log without its final frame)", len(log), got, want)
	}
	if !bytes.Equal(after, log[:last]) {
		t.Fatalf("%d-byte log: Open left %d bytes, want the file truncated to %d", len(log), len(after), last)
	}
}

// checkTornFinalFrame cuts log at every byte inside its final frame, which
// starts at last, and checks each cut with checkTorn.
func checkTornFinalFrame(t *testing.T, log []byte, last int) {
	t.Helper()
	want, _, err := openLog(t, log[:last])
	if err != nil {
		t.Fatal(err)
	}
	for cut := last + 1; cut < len(log); cut++ {
		checkTorn(t, log[:cut], last, want)
	}
}

// checkRefused: log holds lost history. The reader and Open both refuse
// it with ErrCorruptJournal, and Open leaves the file as it was.
func checkRefused(t *testing.T, log []byte) {
	t.Helper()
	if _, _, err := readLog(log); !errors.Is(err, ErrCorruptJournal) {
		t.Fatalf("reader: want ErrCorruptJournal, got %v", err)
	}
	_, after, err := openLog(t, log)
	if !errors.Is(err, ErrCorruptJournal) {
		t.Fatalf("Open: want ErrCorruptJournal, got %v", err)
	}
	if !bytes.Equal(after, log) {
		t.Fatalf("Open refused the log but left %d of its %d bytes", len(after), len(log))
	}
}

// TestBinaryCodecRoundTrip pins every op's encode/decode loop: the
// records read back from a framed log are deep-equal to what was
// written.
func TestBinaryCodecRoundTrip(t *testing.T) {
	want := binTestRecords()
	buf := encodeBinLog(want)
	got, clean, err := readLog(buf)
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
// the tail — never an error — and Open must restore the log without that
// frame and truncate the file to it. The final frame is one of every op
// (reader only: binTestRecords does not replay on testServers), the end
// of two genuine histories, and a frame straddling each of the reader's
// first three buffer edges in a tick log over 200 KiB long.
func TestBinaryReaderTornTail(t *testing.T) {
	recs := binTestRecords()
	buf := encodeBinLog(recs)
	prefix := encodeBinLog(recs[:len(recs)-1])
	for cut := len(prefix) + 1; cut < len(buf); cut++ {
		got, clean, err := readLog(buf[:cut])
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
	for _, log := range [][]byte{realBinaryJournal(t), realBinaryMigrationJournal(t)} {
		offs := frameStarts(log)
		checkTornFinalFrame(t, log, offs[len(offs)-2])
	}
	long := longTickLog(16000)
	if len(long) < 200<<10 {
		t.Fatalf("long tick log is %d bytes, want at least 200 KiB", len(long))
	}
	offs := frameStarts(long)
	for edge := journalReadBuf; edge <= 3*journalReadBuf; edge += journalReadBuf {
		i := straddler(t, offs, edge)
		checkTornFinalFrame(t, long[:offs[i+1]], offs[i])
	}
}

// TestBinaryReaderCorruption checks the refusal half of the taxonomy:
// mid-log damage and destroyed length prefixes are lost history, not
// torn tails, for the reader and for Open, which leaves the file as it
// was.
func TestBinaryReaderCorruption(t *testing.T) {
	recs := binTestRecords()
	buf := encodeBinLog(recs)

	t.Run("flipped payload byte mid-log", func(t *testing.T) {
		mut := append([]byte{}, buf...)
		mut[len(binMagic)+8+2] ^= 0xff // inside the first frame's payload
		checkRefused(t, mut)
	})
	t.Run("absurd length prefix", func(t *testing.T) {
		mut := append([]byte{}, buf...)
		binary.LittleEndian.PutUint32(mut[len(binMagic):], maxBinRecordLen+1)
		checkRefused(t, mut)
	})
	t.Run("flipped final-frame CRC is torn", func(t *testing.T) {
		mut := append([]byte{}, buf...)
		prefix := encodeBinLog(recs[:len(recs)-1])
		mut[len(prefix)+4] ^= 0xff // final frame's CRC field
		got, clean, err := readLog(mut)
		if err != nil {
			t.Fatalf("final-frame CRC damage is a torn write, got %v", err)
		}
		if clean != int64(len(prefix)) || len(got) != len(recs)-1 {
			t.Fatalf("clean %d records %d, want %d / %d", clean, len(got), len(prefix), len(recs)-1)
		}
		log := realBinaryJournal(t)
		offs := frameStarts(log)
		last := offs[len(offs)-2]
		want, _, err := openLog(t, log[:last])
		if err != nil {
			t.Fatal(err)
		}
		log[last+4] ^= 0xff
		checkTorn(t, log, last, want)
	})
	t.Run("valid frame with undecodable payload", func(t *testing.T) {
		mut := encodeBinLog(recs[:1])
		mut = appendRawFrame(mut, []byte{0x01, 0xFF}) // truncated varints
		mut = appendRawFrame(mut, []byte{0x06, 0x01, 0x02})
		checkRefused(t, mut)
	})

	long := longTickLog(16000)
	offs := frameStarts(long)
	t.Run("flipped payload byte straddling a buffer edge", func(t *testing.T) {
		for edge := journalReadBuf; edge <= 3*journalReadBuf; edge += journalReadBuf {
			i := straddler(t, offs, edge)
			mut := append([]byte{}, long...)
			mut[max(edge, offs[i]+8)] ^= 0x01 // a payload byte of the straddling frame
			checkRefused(t, mut)
		}
	})
	t.Run("undecodable frame longer than the buffer", func(t *testing.T) {
		// CRC-valid, so no torn write: an admit whose fields end ≈100 KiB
		// before the payload does.
		big := appendRawFrame(append([]byte{}, long...), bytes.Repeat([]byte{0x01}, 100<<10))
		checkRefused(t, appendBinaryFrame(append([]byte{}, big...), record{Seq: 16002, Op: opTick, T: 16002}))
		checkRefused(t, big) // whole at the tail: still not an interrupted write
		want, _, err := openLog(t, long)
		if err != nil {
			t.Fatal(err)
		}
		for _, cut := range []int{len(long) + 1, len(long) + 8, len(long) + 8 + journalReadBuf, len(big) - 1} {
			checkTorn(t, big[:cut], len(long), want)
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
	fx.checkUnchanged(t, cfg.Dir)
}

// checkUnchanged fails unless both files under dir still hold f's bytes.
func (f replayFixture) checkUnchanged(t *testing.T, dir string) {
	t.Helper()
	if jb, _ := os.ReadFile(filepath.Join(dir, journalName)); !bytes.Equal(jb, f.log) {
		t.Fatalf("a refused directory's journal went from %d to %d bytes", len(f.log), len(jb))
	}
	if sb, _ := os.ReadFile(filepath.Join(dir, snapshotName)); !bytes.Equal(sb, f.snapshot) {
		t.Fatal("a refused directory's snapshot was modified")
	}
}

// TestReplayRefusalKeepsTornTail: a log that replay refuses — a release
// of a VM never admitted — in front of a torn tail leaves the directory
// byte-identical. The torn bytes are cut only once every record before
// them has replayed.
func TestReplayRefusalKeepsTornTail(t *testing.T) {
	cfg := Config{Servers: testServers(6), IdleTimeout: 2, DisableFsync: true, SnapshotEvery: -1}
	fx := replayFixtures(t, cfg)["stale records"]
	recs, _, err := readLog(fx.log)
	if err != nil {
		t.Fatal(err)
	}
	last := recs[len(recs)-1]
	log := appendBinaryFrame(append([]byte{}, fx.log...), record{Seq: last.Seq + 1, Op: opRelease, T: last.T, ID: 999})
	fx.log = append(log, encodeBinLog(tickRecords(1))[len(binMagic):][:3]...)
	cfg.Dir = fx.materialize(t)
	if _, err := Open(cfg); !errors.Is(err, ErrCorruptJournal) {
		t.Fatalf("release of a VM never admitted: err = %v, want ErrCorruptJournal", err)
	}
	fx.checkUnchanged(t, cfg.Dir)
}

// releaseHistory is realBinaryJournal's records, which re-encode to its
// bytes, and the index of the release of VM 1 inside them.
func releaseHistory(t *testing.T) ([]record, int) {
	t.Helper()
	log := realBinaryJournal(t)
	recs, _, err := readLog(log)
	if err != nil || !bytes.Equal(encodeBinLog(recs), log) {
		t.Fatalf("history does not round-trip (err %v)", err)
	}
	i := slices.IndexFunc(recs, func(r record) bool { return r.Op == opRelease && r.ID == 1 })
	if i < 1 || i == len(recs)-1 {
		t.Fatalf("release of vm 1 at index %d of %d records, want one mid-log", i, len(recs))
	}
	return recs, i
}

// checkSeqRefused opens recs as the only log, and replays it under every
// registry policy: both must refuse the record with seq, which follows seq
// prev, with ErrCorruptJournal, naming both seqs.
func checkSeqRefused(t *testing.T, recs []record, seq, prev int64) {
	t.Helper()
	_, _, err := openLog(t, encodeBinLog(recs))
	dir := t.TempDir()
	writeJournal(t, dir, encodeBinLog(recs))
	_, rerr := Replay(dir, testServers(4), 2, registryPolicies(t, 1))
	for name, err := range map[string]error{"Open": err, "Replay": rerr} {
		if !errors.Is(err, ErrCorruptJournal) {
			t.Fatalf("%s = %v, want ErrCorruptJournal", name, err)
		}
		if want := fmt.Sprintf("seq %d follows seq %d", seq, prev); !strings.Contains(err.Error(), want) {
			t.Fatalf("%s = %v, want it to say %q", name, err, want)
		}
	}
}

// TestReplayRefusesSeqGap: without its release frame, realBinaryJournal's
// seqs skip one, and VM 1 would stay resident — an acknowledged release
// lost without a word. Replay refuses the gap.
func TestReplayRefusesSeqGap(t *testing.T) {
	recs, i := releaseHistory(t)
	seq, prev := recs[i+1].Seq, recs[i-1].Seq
	checkSeqRefused(t, slices.Delete(recs, i, i+1), seq, prev)
}

// TestReplayRefusesSeqRewind: the same release renumbered to seq 1 is no
// stale survivor of a snapshot — records have replayed before it — so
// replay refuses it rather than skip it.
func TestReplayRefusesSeqRewind(t *testing.T) {
	recs, i := releaseHistory(t)
	recs[i].Seq = 1
	checkSeqRefused(t, recs, 1, recs[i-1].Seq)
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
	j, err := openJournal(t.TempDir(), true, nil) // an empty log: nothing to visit
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
// fsync-on journal and checks the group-commit accounting: every Admit
// call's commit is acknowledged by a flush, and the flush count never
// exceeds the commit count. (How many flushes concurrent admits share
// depends on timing, so the sequential stream is the deterministic way
// to count; actual
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
