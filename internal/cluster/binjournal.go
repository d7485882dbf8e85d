package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"vmalloc/internal/api"
)

// Binary journal format, version 1.
//
// The file opens with the 6-byte magic "\x00vmjl1"; a log with any other
// header is refused. After the magic the file is a sequence of frames:
//
//	u32le payload length | u32le CRC-32 (IEEE) of payload | payload
//
// Payloads are varint-packed records (see encodeBinaryRecord). Framing
// gives the reader its recovery taxonomy:
//
//   - a frame that does not end by the file's size, or a final frame
//     whose CRC mismatches, is a torn tail — an interrupted write — and
//     is truncated away once every record before it has replayed;
//   - a CRC mismatch or undecodable payload with more data after it is
//     lost history and refuses the directory with ErrCorruptJournal;
//   - a length prefix beyond maxBinRecordLen means the framing itself
//     is gone (e.g. a flipped length byte) and is treated as corruption
//     rather than walking an absurd distance off the log.
const binJournalVersion = '1'

var binMagic = []byte{0x00, 'v', 'm', 'j', 'l', binJournalVersion}

// maxBinRecordLen bounds a single binary record's payload. Real records
// are tens of bytes; anything claiming a megabyte is a destroyed length
// prefix, not data.
const maxBinRecordLen = 1 << 20

// journalReadBuf is the size of the one buffer replay reads the log
// through, so restart memory does not grow with the log. A longer frame
// is still read whole, up to maxBinRecordLen.
const journalReadBuf = 64 << 10

// appendBinaryFrame appends r's framed binary encoding to buf and
// returns the extended slice.
func appendBinaryFrame(buf []byte, r record) []byte {
	frameStart := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // length + CRC placeholders
	payloadStart := len(buf)
	buf = encodeBinaryRecord(buf, r)
	payload := buf[payloadStart:]
	binary.LittleEndian.PutUint32(buf[frameStart:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[frameStart+4:], crc32.ChecksumIEEE(payload))
	return buf
}

// encodeBinaryRecord appends r's payload: seq, op code, clock, then the
// op's fields. Admit and adopt share their VM's six fields, written last.
func encodeBinaryRecord(buf []byte, r record) []byte {
	buf = binary.AppendUvarint(buf, uint64(r.Seq))
	buf = append(buf, byte(r.Op))
	buf = binary.AppendVarint(buf, int64(r.T))
	switch r.Op {
	case opAdmit, opAdopt:
		buf = binary.AppendVarint(buf, int64(r.Server))
		buf = binary.AppendVarint(buf, int64(r.Start))
		if r.Op == opAdopt {
			buf = binary.AppendVarint(buf, int64(r.Handoff))
		}
		buf = binary.AppendVarint(buf, int64(r.VM.ID))
		buf = appendBinString(buf, r.VM.Type)
		buf = appendBinFloat(buf, r.VM.Demand.CPU)
		buf = appendBinFloat(buf, r.VM.Demand.Mem)
		buf = binary.AppendVarint(buf, int64(r.VM.Start))
		buf = binary.AppendVarint(buf, int64(r.VM.End))
	case opRelease:
		buf = binary.AppendVarint(buf, int64(r.ID))
	case opTick:
	case opMigrate:
		buf = binary.AppendVarint(buf, int64(r.ID))
		buf = binary.AppendVarint(buf, int64(r.Server))
		buf = binary.AppendVarint(buf, int64(r.From))
		buf = binary.AppendVarint(buf, int64(r.Handoff))
		buf = appendBinString(buf, r.Policy)
		buf = appendBinFloat(buf, r.Saved)
		buf = appendBinFloat(buf, r.Cost)
	default:
		panic(fmt.Sprintf("cluster: journaling unknown op %d", r.Op))
	}
	return buf
}

// decodeBinaryRecord parses one CRC-verified payload into *r, overwriting
// every field, its strings interned in names. Trailing bytes after the
// record's last field are corruption, not padding: the CRC matched, so the
// writer really framed those bytes, and this decoder does not know them.
func decodeBinaryRecord(payload []byte, r *record, names *api.Interner) error {
	d := binDecoder{b: payload, names: names}
	*r = record{}
	r.Seq = int64(d.uvarint())
	r.Op = op(d.byte())
	r.T = int(d.varint())
	switch r.Op {
	case opAdmit, opAdopt:
		r.Server = int(d.varint())
		r.Start = int(d.varint())
		if r.Op == opAdopt {
			r.Handoff = int(d.varint())
		}
		r.VM.ID = int(d.varint())
		r.VM.Type = d.string()
		r.VM.Demand.CPU = d.float()
		r.VM.Demand.Mem = d.float()
		r.VM.Start = int(d.varint())
		r.VM.End = int(d.varint())
	case opRelease:
		r.ID = int(d.varint())
	case opTick:
	case opMigrate:
		r.ID = int(d.varint())
		r.Server = int(d.varint())
		r.From = int(d.varint())
		r.Handoff = int(d.varint())
		r.Policy = d.string()
		r.Saved = d.float()
		r.Cost = d.float()
	default:
		if d.err == nil {
			return fmt.Errorf("cluster: unknown binary op code %d", r.Op)
		}
	}
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("cluster: %d trailing bytes after binary record", len(d.b))
	}
	return nil
}

// readBinaryRecords streams a journal of size bytes from r through one
// journalReadBuf-byte buffer. It checks the magic: an empty log, or a torn
// prefix of the magic (an interrupted first write), is an empty log; any
// other header is not a journal this build wrote. Then each frame's CRC
// is checked, its payload decoded into one reused record, and that record
// handed to visit, in log order (its strings interned for this read, so
// the few VM type and policy names a log repeats cost one allocation each,
// not one per record); the first fault — in the log, or visit's
// refusal — ends the stream and is returned. Otherwise it returns the byte
// offset up to which the file is clean: a frame that does not end by
// size, or a final frame that fails its CRC, is a torn tail past it.
func readBinaryRecords(r io.Reader, size int64, visit func(*record) error) (int64, error) {
	br := bufio.NewReaderSize(r, journalReadBuf)
	head, err := br.Peek(int(min(size, int64(len(binMagic)))))
	switch {
	case err != nil:
		return 0, fmt.Errorf("cluster: reading journal: %w", err)
	case len(head) < len(binMagic) && bytes.HasPrefix(binMagic, head):
		return 0, nil
	case !bytes.HasPrefix(head, binMagic):
		return 0, fmt.Errorf("%w: unrecognised journal header %q", ErrCorruptJournal, head)
	}
	var (
		rec   record
		names api.Interner
	)
	// peeked counts the buffered bytes already used, discarded only when
	// the next frame is read.
	off, peeked := int64(len(binMagic)), len(binMagic)
	for size-off >= 8 { // fewer bytes left is a torn frame header
		_, _ = br.Discard(peeked) // they are buffered, so it cannot fail
		hdr, err := br.Peek(8)
		if err != nil {
			return 0, fmt.Errorf("cluster: reading journal: %w", err)
		}
		ln := binary.LittleEndian.Uint32(hdr)
		if ln > maxBinRecordLen {
			return 0, fmt.Errorf("%w: binary record at byte %d claims %d bytes; framing lost", ErrCorruptJournal, off, ln)
		}
		end := off + 8 + int64(ln)
		if end > size {
			break // torn tail: the frame was never fully written
		}
		// A frame is checked and decoded where it lies in the buffer; one
		// longer than the buffer is read whole into a slice of its own.
		frame, err := br.Peek(8 + int(ln))
		peeked = len(frame)
		if err == bufio.ErrBufferFull {
			frame, peeked = make([]byte, 8+ln), 0
			_, err = io.ReadFull(br, frame)
		}
		if err != nil {
			return 0, fmt.Errorf("cluster: reading journal: %w", err)
		}
		if crc32.ChecksumIEEE(frame[8:]) != binary.LittleEndian.Uint32(frame[4:]) {
			if end == size {
				break // checksum of the final frame: torn write
			}
			return 0, fmt.Errorf("%w: binary record at byte %d fails its checksum", ErrCorruptJournal, off)
		}
		if err := decodeBinaryRecord(frame[8:], &rec, &names); err != nil {
			// The CRC matched, so this is not an interrupted write — the
			// log holds a frame this reader cannot understand.
			return 0, fmt.Errorf("%w: binary record at byte %d: %v", ErrCorruptJournal, off, err)
		}
		if err := visit(&rec); err != nil {
			return 0, err
		}
		off = end
	}
	return off, nil
}

func appendBinString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendBinFloat(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

// binDecoder reads the varint-packed payload fields, latching the first
// error so call sites stay linear. Strings come from names.
type binDecoder struct {
	b     []byte
	err   error
	names *api.Interner
}

func (d *binDecoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("cluster: truncated binary record payload")
	}
}

func (d *binDecoder) byte() byte {
	if d.err != nil || len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *binDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *binDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *binDecoder) string() string {
	n := d.uvarint()
	if d.err != nil || uint64(len(d.b)) < n {
		d.fail()
		return ""
	}
	b := d.b[:n]
	d.b = d.b[n:]
	return d.names.Intern(b)
}

func (d *binDecoder) float() float64 {
	if d.err != nil || len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}
