package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
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
//   - a frame that runs past EOF, or whose final-frame CRC mismatches,
//     is a torn tail — an interrupted write — and is truncated away;
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

// decodeBinaryRecord parses one CRC-verified payload. Trailing bytes
// after the record's last field are corruption, not padding: the CRC
// matched, so the writer really framed those bytes, and this decoder
// does not know them.
func decodeBinaryRecord(payload []byte) (record, error) {
	d := binDecoder{b: payload}
	var r record
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
			return record{}, fmt.Errorf("cluster: unknown binary op code %d", r.Op)
		}
	}
	if d.err != nil {
		return record{}, d.err
	}
	if len(d.b) != 0 {
		return record{}, fmt.Errorf("cluster: %d trailing bytes after binary record", len(d.b))
	}
	return r, nil
}

// readBinaryRecords parses a binary journal body (b starts with the
// magic), returning the clean records and the byte offset up to which
// the file is clean.
func readBinaryRecords(b []byte) ([]record, int64, error) {
	recs := make([]record, 0, countBinaryFrames(b))
	off := len(binMagic)
	clean := int64(off)
	for off < len(b) {
		if len(b)-off < 8 {
			break // torn frame header
		}
		ln := binary.LittleEndian.Uint32(b[off:])
		sum := binary.LittleEndian.Uint32(b[off+4:])
		if ln > maxBinRecordLen {
			return nil, 0, fmt.Errorf("%w: binary record at byte %d claims %d bytes; framing lost", ErrCorruptJournal, off, ln)
		}
		end := off + 8 + int(ln)
		if end > len(b) {
			break // torn tail: the frame was never fully written
		}
		payload := b[off+8 : end]
		if crc32.ChecksumIEEE(payload) != sum {
			if end == len(b) {
				break // checksum of the final frame: torn write
			}
			return nil, 0, fmt.Errorf("%w: binary record at byte %d fails its checksum", ErrCorruptJournal, off)
		}
		r, err := decodeBinaryRecord(payload)
		if err != nil {
			// The CRC matched, so this is not an interrupted write — the
			// log holds a frame this reader cannot understand.
			return nil, 0, fmt.Errorf("%w: binary record at byte %d: %v", ErrCorruptJournal, off, err)
		}
		recs = append(recs, r)
		off = end
		clean = int64(off)
	}
	return recs, clean, nil
}

// countBinaryFrames bounds the record count from the length headers alone
// (no CRC), stopping where readBinaryRecords stops on framing.
func countBinaryFrames(b []byte) (n int) {
	for off := len(binMagic); len(b)-off >= 8; n++ {
		ln := binary.LittleEndian.Uint32(b[off:])
		if ln > maxBinRecordLen || len(b)-off-8 < int(ln) {
			break
		}
		off += 8 + int(ln)
	}
	return n
}

func appendBinString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendBinFloat(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

// binDecoder reads the varint-packed payload fields, latching the first
// error so call sites stay linear.
type binDecoder struct {
	b   []byte
	err error
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
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
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
