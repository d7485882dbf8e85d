package cluster

import (
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"vmalloc/internal/api"
	"vmalloc/internal/model"
)

// realBinaryJournal materializes a genuine journal by driving a
// journaled cluster through an admit/release/tick history, reading the
// bytes back before Close compacts them.
func realBinaryJournal(tb testing.TB) []byte {
	tb.Helper()
	dir := tb.TempDir()
	c := mustOpenTB(tb, Config{Servers: testServers(4), IdleTimeout: 2, Dir: dir, SnapshotEvery: -1})
	reqs := []api.AdmitRequest{
		{ID: 1, Demand: model.Resources{CPU: 2, Mem: 3}, Start: 1, DurationMinutes: 10},
		{ID: 2, Demand: model.Resources{CPU: 8, Mem: 8}, Start: 2, DurationMinutes: 4},
		{ID: 3, Demand: model.Resources{CPU: 4, Mem: 4}, Start: 3, DurationMinutes: 20},
	}
	if _, err := c.Admit(context.Background(), reqs); err != nil {
		tb.Fatal(err)
	}
	if err := c.AdvanceTo(5); err != nil {
		tb.Fatal(err)
	}
	if _, err := c.Release(context.Background(), 1); err != nil {
		tb.Fatal(err)
	}
	if err := c.AdvanceTo(9); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		tb.Fatal(err)
	}
	if err := c.Close(); err != nil {
		tb.Fatal(err)
	}
	return data
}

// realBinaryMigrationJournal is realBinaryJournal's counterpart holding
// a genuine migrate record.
func realBinaryMigrationJournal(tb testing.TB) []byte {
	tb.Helper()
	dir := tb.TempDir()
	c := mustOpenTB(tb, Config{Servers: testServers(4), IdleTimeout: 2, Dir: dir, SnapshotEvery: -1,
		MigrationCostPerGB: 0.5})
	reqs := []api.AdmitRequest{
		{ID: 1, Demand: model.Resources{CPU: 2, Mem: 2}, Start: 1, DurationMinutes: 20},
		{ID: 2, Demand: model.Resources{CPU: 2, Mem: 4}, Start: 1, DurationMinutes: 30},
	}
	if _, err := c.Admit(context.Background(), reqs); err != nil {
		tb.Fatal(err)
	}
	if err := c.AdvanceTo(5); err != nil {
		tb.Fatal(err)
	}
	onto := c.State().VMs[0].Server
	if _, err := c.Migrate(context.Background(), 2, testServers(4)[(onto+1)%4].ID); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		tb.Fatal(err)
	}
	if err := c.Close(); err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzBinaryJournal feeds arbitrary bytes to the reopen path (see
// fuzzReopen): binary frames, torn tails, flipped length prefixes, a
// foreign header or garbage.
func FuzzBinaryJournal(f *testing.F) {
	base := realBinaryJournal(f)
	f.Add(base)
	f.Add([]byte{})
	f.Add(append([]byte{}, binMagic...)) // bare magic: an empty binary log
	f.Add([]byte{0x00, 'v', 'm', 'j', 'l', '9'})
	// Torn tails at several depths: interrupted writes, which reopen must
	// truncate away, not refuse.
	for _, cut := range []int{1, 7, 13} {
		if len(base) > cut {
			f.Add(base[:len(base)-cut])
		}
	}
	// A flipped length-prefix byte on the first frame: the framing is
	// destroyed, which must read as corruption.
	if len(base) > len(binMagic)+8 {
		mut := append([]byte{}, base...)
		mut[len(binMagic)+2] ^= 0x40
		f.Add(mut)
		// A flipped payload byte mid-log: lost history.
		mid := append([]byte{}, base...)
		mid[len(mid)/2] ^= 0x01
		f.Add(mid)
	}
	// Mid-log garbage: a correctly-framed record followed by noise and
	// more data.
	garbage := append([]byte{}, binMagic...)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:], 4)
	garbage = append(garbage, hdr[:]...)
	garbage = append(garbage, []byte("XXXX")...)
	garbage = append(garbage, base[len(binMagic):]...)
	f.Add(garbage)
	// Foreign formats: a JSON-lines log (must refuse:
	// TestForeignJournalRefused), and binary magic with JSON text behind
	// it (must refuse or truncate, never misparse).
	f.Add([]byte(foreignJSONLog))
	f.Add(append(append([]byte{}, binMagic...), foreignJSONLog...))
	// A genuine history ending in a live migration must replay cleanly.
	migBase := realBinaryMigrationJournal(f)
	f.Add(migBase)
	if len(migBase) > 11 {
		f.Add(migBase[:len(migBase)-11])
	}
	// A tick log over three read buffers long, and the same log cut at the
	// first buffer edge, inside the frame that straddles it.
	long := longTickLog(16000)
	straddler(f, frameStarts(long), journalReadBuf)
	f.Add(long)
	f.Add(long[:journalReadBuf])

	f.Fuzz(fuzzReopen)
}
