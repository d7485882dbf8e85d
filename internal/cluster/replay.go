package cluster

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"vmalloc/internal/model"
	"vmalloc/internal/online"
)

// ReplayRow is one policy's counterfactual over a journal directory: what
// its own fleet did with the admissions, releases and clock advances the
// directory's log holds.
type ReplayRow struct {
	// Policy is the policy's self-reported name.
	Policy string
	// Decisions counts the journaled admissions the policy was asked to
	// place; Divergences those it placed on another server than the
	// journaled one, or refused; Rejections those it refused.
	Decisions   int
	Divergences int
	Rejections  int
	// EnergyWattMinutes is the policy's fleet's energy integral at Clock,
	// the last record's clock: its counterfactual Eq. 17 figure.
	EnergyWattMinutes float64
	// Residents is the policy's fleet's resident count at Clock.
	Residents int
	Clock     int
}

// Replay answers the counterfactual question offline: it replays the
// journal directory dir under every policy, each on a fleet of its own,
// and returns one row per policy, in the order given. servers and
// idleTimeout must be those the directory was written with.
//
// Every fleet starts from dir's snapshot (or empty, without one), so the
// window is the records since the last snapshot: a log a clean Close
// compacted is empty. Each admit record's VM is offered to each policy,
// release and tick records release and advance on every fleet (a VM a
// policy refused is not released there), and migrate and adopt records
// only advance the clock: they are repairs and moves the champion's
// fleet made, not placement choices. Admissions the champion refused
// were never journaled, so no policy is asked about them.
//
// Replay only reads dir. A torn tail is the end of the log, as on Open,
// but stays on disk. A snapshot or record that does not decode, a seq gap
// or rewind, or a VM that could not have been admitted is
// ErrCorruptJournal.
func Replay(dir string, servers []model.Server, idleTimeout int, policies []online.Policy) ([]ReplayRow, error) {
	if _, err := os.Stat(dir); err != nil {
		return nil, err
	}
	snap, err := readSnapshot(dir)
	if err != nil {
		return nil, err
	}
	lastSeq := int64(0)
	fleets := make([]*online.Fleet, len(policies))
	for i := range fleets {
		if snap == nil {
			fleets[i] = online.NewFleet(servers, idleTimeout)
		} else if fleets[i], err = online.RestoreFleet(servers, idleTimeout, snap.Fleet); err != nil {
			return nil, fmt.Errorf("%w: snapshot: %v", ErrCorruptJournal, err)
		}
	}
	if snap != nil {
		lastSeq = snap.LastSeq
	}
	rows := make([]ReplayRow, len(policies))
	visit := inSequence(&lastSeq, func(r *record) error {
		if r.Op == opAdmit {
			if err := checkJournaledVM(r); err != nil {
				return err
			}
		}
		for i, fl := range fleets {
			if r.T > fl.Now() {
				fl.AdvanceTo(r.T)
			}
			switch r.Op {
			case opAdmit:
				row := &rows[i]
				row.Decisions++
				idx, err := policies[i].Place(fl.View(), r.VM)
				if err == nil {
					_, err = fl.Commit(idx, r.VM)
				}
				if err != nil {
					row.Rejections++
				}
				if err != nil || idx != r.Server {
					row.Divergences++
				}
			case opRelease:
				if _, ok := fl.Resident(r.ID); ok {
					fl.Release(r.ID) //nolint:errcheck // resident: cannot fail
				}
			}
		}
		return nil
	})
	f, err := os.Open(filepath.Join(dir, journalName))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	if err == nil {
		defer f.Close()
		fi, err := f.Stat()
		if err != nil {
			return nil, err
		}
		if _, err := readBinaryRecords(f, fi.Size(), visit); err != nil {
			return nil, err
		}
	}
	for i, fl := range fleets {
		rows[i].Policy = policies[i].Name()
		rows[i].EnergyWattMinutes = fl.EnergyAt(fl.Now()).Total()
		rows[i].Residents = fl.NumResidents()
		rows[i].Clock = fl.Now()
	}
	return rows, nil
}

// inSequence wraps apply in the log's one sequence rule, which Open and
// Replay share: records at the head of the log with seq ≤ *last are
// covered by the snapshot (a crash between its rename and the log's
// truncation left them) and are skipped; every record after must carry
// the seq after the one before it. An apply error, or a gap or rewind, is
// ErrCorruptJournal. *last ends at the last applied record's seq.
func inSequence(last *int64, apply func(*record) error) func(*record) error {
	applied := false
	return func(r *record) error {
		if !applied && r.Seq <= *last {
			return nil
		}
		// A gap or a step back is a lost or rewritten mutation, not a log
		// this cluster wrote.
		if r.Seq != *last+1 {
			return fmt.Errorf("%w: journal seq %d follows seq %d", ErrCorruptJournal, r.Seq, *last)
		}
		if err := apply(r); err != nil {
			return fmt.Errorf("%w: %v", ErrCorruptJournal, err)
		}
		*last, applied = r.Seq, true
		return nil
	}
}

// checkJournaledVM refuses an admit or adopt record whose VM could not
// have passed normalize (or the adopt checks) before it was written: such
// a record is corruption, and replaying it (e.g. a negative duration)
// could corrupt a fleet's ledgers.
func checkJournaledVM(r *record) error {
	if r.VM.ID < 1 {
		return fmt.Errorf("cluster: journal seq %d: vm id %d", r.Seq, r.VM.ID)
	}
	if err := r.VM.Validate(); err != nil {
		return fmt.Errorf("cluster: journal seq %d: %w", r.Seq, err)
	}
	return nil
}
