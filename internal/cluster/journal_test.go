package cluster

import (
	"bytes"
	"encoding/json"
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

// readRecords parses the journal file at path in whichever codec it was
// written, returning every clean record and the byte offset up to which
// the file is clean.
func readRecords(path string) ([]record, int64, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	return parseJournal(b)
}

// jsonLines encodes records the way the retired JSON writer did — one
// json.Marshal(record) per line — to build the legacy fixtures the
// read-only decoder and the upgrade-at-open path are tested against.
func jsonLines(tb testing.TB, recs []record) []byte {
	tb.Helper()
	var buf bytes.Buffer
	for _, r := range recs {
		b, err := json.Marshal(r)
		if err != nil {
			tb.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// legacyJSON re-encodes a binary journal image as the JSON-lines log the
// parent format would have held for the same history.
func legacyJSON(tb testing.TB, bin []byte) []byte {
	tb.Helper()
	recs, clean, err := parseJournal(bin)
	if err != nil || clean != int64(len(bin)) || len(recs) == 0 {
		tb.Fatalf("fixture source is not a clean non-empty journal: %d records, clean %d of %d, err %v", len(recs), clean, len(bin), err)
	}
	return jsonLines(tb, recs)
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
	clean := encodeBinLog(t, tickRecords(5, 9))
	torn := encodeBinLog(t, tickRecords(5, 9, 12))
	path := writeJournal(t, dir, torn[:len(torn)-3]) // torn mid-frame
	j, snap, recs, err := openJournal(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer j.close()
	if snap != nil {
		t.Error("snapshot appeared from nowhere")
	}
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
			j, _, recs, err := openJournal(dir, true)
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
			if want := encodeBinLog(t, tickRecords(5, 9)); !bytes.Equal(b, want) {
				t.Fatalf("log = %q, want magic once then two frames %q", b, want)
			}
		})
	}
}

// The JSON reader's torn-tail and corruption taxonomy, exercised on
// fixture text: openJournal flags such a log legacy and leaves its bytes
// alone (the cluster's upgrade snapshot is what empties it).

func TestLegacyJournalTornTailsDropped(t *testing.T) {
	for name, log := range map[string]string{
		"unterminated": `{"seq":1,"op":"tick","t":5}` + "\n" + `{"seq":2,"op":"admit","t":9,"vm":{"id":7,"dem`,
		// A torn record that happens to end in a newline is still dropped.
		"terminated": `{"seq":1,"op":"tick","t":5}` + "\n" + `{"seq":2,"op":` + "\n",
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := writeJournal(t, dir, []byte(log))
			j, _, recs, err := openJournal(dir, false)
			if err != nil {
				t.Fatal(err)
			}
			defer j.close()
			if len(recs) != 1 || recs[0].T != 5 {
				t.Fatalf("recs = %+v, want the one clean record", recs)
			}
			if !j.legacy || j.empty {
				t.Fatalf("legacy %v empty %v, want a legacy non-empty log", j.legacy, j.empty)
			}
			if b, _ := os.ReadFile(path); string(b) != log {
				t.Fatalf("open rewrote a legacy log: %q", b)
			}
		})
	}
}

func TestLegacyJournalCorruptMiddleRefused(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir, []byte(
		`{"seq":1,"op":"tick","t":5}`+"\n"+
			`garbage`+"\n"+
			`{"seq":3,"op":"tick","t":9}`+"\n"))
	if _, _, _, err := openJournal(dir, false); !errors.Is(err, ErrCorruptJournal) {
		t.Fatalf("mid-journal corruption: err = %v, want ErrCorruptJournal", err)
	}
}
