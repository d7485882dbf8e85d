package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"vmalloc/internal/api"
	"vmalloc/internal/model"
	"vmalloc/internal/online"
)

// On-disk layout under Config.Dir:
//
//	snapshot.json  — the last full FleetSnapshot plus the journal sequence
//	                 number it covers (LastSeq)
//	journal.jsonl  — every mutation since, as CRC-framed binary records
//	                 behind the "\x00vmjl1" magic (see binjournal.go). A
//	                 zero-byte file is a valid empty log: the magic is
//	                 written together with the first frame. Records with
//	                 seq ≤ LastSeq at the head of the log are stale
//	                 survivors of a crash between snapshot rename and
//	                 journal truncation and are skipped on replay; every
//	                 record replayed must carry the seq after the one
//	                 before it.
//
// The log keeps the name journal.jsonl, which no longer describes its
// format, because bench/restart.go reads that path.
//
// A record survives a process crash once its full frame reaches the
// file; durability against power loss or a kernel crash additionally
// requires the fsync the cluster issues (via commit) for every
// acknowledged mutation. A torn tail — a truncated final frame — is
// dropped on open: once every record before it has replayed, the file is
// truncated back to the last clean record. Corruption anywhere before the
// tail is an error — it means lost history, not an interrupted write —
// and open refuses the directory without writing to it.
const (
	journalName  = "journal.jsonl"
	snapshotName = "snapshot.json"
)

// op is a journal operation; its value is the op code byte on disk.
type op byte

const (
	opAdmit op = iota + 1
	opRelease
	opTick
	opMigrate
	opAdopt
)

// record is one journaled mutation. T is the fleet clock the mutation was
// applied at; replay advances to T before re-applying, which reproduces
// the exact post-mutation state (Commit re-derives the actual start, and
// the recorded Start cross-checks it; Migrate re-derives the handoff
// minute, cross-checked against Handoff).
type record struct {
	Seq    int64
	Op     op
	T      int
	VM     model.VM // admit/adopt
	Server int      // admit/migrate/adopt: target server index
	Start  int      // admit/adopt: actual start minute
	ID     int      // release/migrate: the VM
	// Migrate fields. From is the source server index and Handoff the
	// first minute the target hosts the VM (both cross-checked on replay;
	// adopt records carry Handoff too); Policy, Saved and Cost carry the
	// planner's outcome so the migration history — not just the fleet
	// state — replays byte-identically.
	From    int
	Handoff int
	Policy  string
	Saved   float64
	Cost    float64
}

// snapshotFile is the serialised snapshot.json.
type snapshotFile struct {
	LastSeq int64                 `json:"lastSeq"`
	NextID  int                   `json:"nextID"`
	Fleet   *online.FleetSnapshot `json:"fleet"`
	// MigrationSaved and Migrations persist the consolidation surface
	// across compaction: the summed planner estimates and the retained
	// migration history (bounded; see migrationHistoryLimit).
	MigrationSaved float64               `json:"migrationSavedWattMinutes,omitempty"`
	Migrations     []api.MigrationRecord `json:"migrations,omitempty"`
}

// journal is the append side of the log. append and snapshot are called
// under the cluster mutex; commit may be called with or without it.
//
// Group commit runs on the committing callers' goroutines. Under gmu, the
// first commit that finds no flush running issues one fsync, which covers
// every record appended so far; commits that arrive meanwhile wait on
// flushed for the first flush that starts after their call, and one of
// them issues it. So one fsync runs at a time, and it acknowledges every
// caller that waited for it.
//
// A failed flush is sticky: after a failed fsync the kernel may drop the
// dirty pages, so a later fsync does not cover the records before it. The
// failed flush's waiters and every later commit return its error until a
// snapshot, which captures the state those records described, succeeds.
type journal struct {
	dir    string
	f      *os.File
	seq    int64
	nosync bool // Config.DisableFsync: skip fsyncs (UNSAFE, test-only)

	empty bool   // the log holds no bytes: the next append leads with binMagic
	enc   []byte // reusable append encode buffer

	gmu     sync.Mutex
	flushed sync.Cond     // on gmu; broadcast when a flush ends
	started uint64        // flushes begun; one runs while started > done
	done    uint64        // flushes ended
	err     error         // the sticky failed flush, until a snapshot succeeds
	groups  atomic.Uint64 // fsync groups executed
	grouped atomic.Uint64 // commits acknowledged by those groups
}

// readSnapshot loads dir's snapshot.json, or nil when there is none.
func readSnapshot(dir string) (*snapshotFile, error) {
	b, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	snap := new(snapshotFile)
	if err := json.Unmarshal(b, snap); err != nil {
		return nil, fmt.Errorf("%w: snapshot does not parse: %v", ErrCorruptJournal, err)
	}
	if snap.Fleet == nil {
		return nil, fmt.Errorf("%w: snapshot has no fleet state", ErrCorruptJournal)
	}
	return snap, nil
}

// openJournal streams every clean record of the log under dir into visit,
// in log order, and only then truncates a torn tail and hands back the
// journal, appending after the last clean record. The one handle reads
// the log and then appends to it; a refusal, the reader's or visit's,
// closes it before anything under dir is written (an absent log is
// created empty, and an empty log refuses nothing).
func openJournal(dir string, nosync bool, visit func(*record) error) (*journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: journal dir: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, journalName), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	var clean int64
	if err == nil {
		clean, err = readBinaryRecords(f, fi.Size(), visit)
	}
	if err == nil && fi.Size() > clean {
		if err = f.Truncate(clean); err != nil {
			err = fmt.Errorf("cluster: dropping torn journal tail: %w", err)
		}
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	j := &journal{dir: dir, f: f, nosync: nosync, empty: clean == 0}
	j.flushed.L = &j.gmu
	return j, nil
}

// append journals one mutation, assigning it the next sequence number.
// The first frame of an empty log goes out behind binMagic in the same
// write, so the file is never a headerless run of frames.
func (j *journal) append(r record) error {
	r.Seq = j.seq + 1
	j.enc = j.enc[:0]
	if j.empty {
		j.enc = append(j.enc, binMagic...)
	}
	j.enc = appendBinaryFrame(j.enc, r)
	if _, err := j.f.Write(j.enc); err != nil {
		return fmt.Errorf("cluster: journal append: %w", err)
	}
	j.empty = false
	j.seq = r.Seq
	return nil
}

// commit makes every previously appended record durable: it returns
// once an fsync that began after the call completes, issuing that fsync
// itself when none is running. Concurrent commits share one fsync (group
// commit); with DisableFsync it returns immediately.
func (j *journal) commit() error {
	if j.nosync {
		return nil
	}
	j.gmu.Lock()
	defer j.gmu.Unlock()
	// A running flush may have begun before this call's records were
	// appended: only the next one to start covers them.
	want := j.started + 1
	for j.err == nil && j.done < want {
		if j.started > j.done {
			j.flushed.Wait()
			continue
		}
		j.started++
		j.gmu.Unlock()
		err := j.f.Sync()
		j.gmu.Lock()
		j.done++
		j.groups.Add(1)
		if err != nil {
			j.err = fmt.Errorf("cluster: journal sync: %w", err)
		}
		j.flushed.Broadcast()
	}
	if j.done >= want {
		j.grouped.Add(1)
	}
	return j.err
}

// snapshot atomically replaces snapshot.json (write to a temp file, sync,
// rename) and then truncates the journal: every record it held is covered
// by the snapshot's LastSeq. A crash between the rename and the truncation
// leaves stale records behind, which replay skips by sequence number.
func (j *journal) snapshot(s *snapshotFile) error {
	s.LastSeq = j.seq
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(j.dir, snapshotName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	if !j.nosync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(j.dir, snapshotName)); err != nil {
		return err
	}
	// Compaction: the journal's records are all ≤ LastSeq now. The handle
	// is in append mode, so subsequent writes land at the new end.
	if err := j.f.Truncate(0); err != nil {
		return fmt.Errorf("cluster: journal compaction: %w", err)
	}
	j.empty = true
	j.gmu.Lock()
	j.err = nil // the snapshot covers every record a failed flush left behind
	j.gmu.Unlock()
	return nil
}

// close syncs and closes the log. Its callers have no commit running.
func (j *journal) close() error {
	if !j.nosync {
		if err := j.f.Sync(); err != nil {
			j.f.Close()
			return err
		}
	}
	return j.f.Close()
}
