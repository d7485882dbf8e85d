package obs

import (
	"encoding/json"
	"log/slog"
	"sync"
)

// ring is the bounded buffer under Store and EnergyRecorder: it keeps the
// newest cap(buf) values and evicts the oldest once full. It is not safe
// for concurrent use; each owner holds its own mutex around it.
type ring[T any] struct {
	buf  []T
	next int // the oldest slot (and next overwrite) once the buffer is full
}

func newRing[T any](n int) ring[T] { return ring[T]{buf: make([]T, 0, n)} }

func (r *ring[T]) len() int { return len(r.buf) }

// push appends *v, evicting the oldest value when the ring is full, and
// returns its slot. It takes a pointer so the recorders' wide structs are
// copied once, into their slot.
func (r *ring[T]) push(v *T) *T {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, *v)
		return &r.buf[len(r.buf)-1]
	}
	slot := &r.buf[r.next]
	*slot = *v
	if r.next++; r.next == len(r.buf) {
		r.next = 0
	}
	return slot
}

// newest returns the most recently pushed value's slot — writing through
// it replaces that value in place — or nil when the ring is empty.
func (r *ring[T]) newest() *T {
	if len(r.buf) == 0 {
		return nil
	}
	if r.next == 0 { // not wrapped yet, or wrapped exactly onto slot 0
		return &r.buf[len(r.buf)-1]
	}
	return &r.buf[r.next-1]
}

// filter copies the values keep accepts (every value when keep is nil),
// oldest first, and trims the result to its newest limit entries (0 keeps
// all).
func (r *ring[T]) filter(limit int, keep func(*T) bool) []T {
	out := make([]T, 0, len(r.buf))
	for _, part := range [2][]T{r.buf[r.next:], r.buf[:r.next]} {
		for i := range part {
			if keep == nil || keep(&part[i]) {
				out = append(out, part[i])
			}
		}
	}
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// stamped is a Store entry's pointer type: stamp gives the entry its
// sequence number and, when the caller left it unset, its wall time.
type stamped[T any] interface {
	*T
	stamp(seq int64)
}

// Store is a bounded, concurrency-safe ring of the newest entries — the
// flight recorder's decisions (FlightRecorder) and the trace spans
// (SpanStore). Every entry gets the next number of a gap-free sequence,
// so Seq also says how much history the ring has evicted. A nil *Store is
// valid and records nothing, so call sites stay unconditional. Recording
// is passive: it never influences a placement.
type Store[T any, P stamped[T]] struct {
	mu  sync.Mutex
	buf ring[T]
	seq int64
}

func newStore[T any, P stamped[T]](n, def int) *Store[T, P] {
	if n <= 0 {
		n = def
	}
	return &Store[T, P]{buf: newRing[T](n)}
}

// Record appends v, stamped, evicting the oldest entry when full. The
// slot is stamped after the push, so v does not escape and Record
// allocates nothing.
func (s *Store[T, P]) Record(v T) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.seq++
	P(s.buf.push(&v)).stamp(s.seq)
	s.mu.Unlock()
}

// Select returns the entries keep accepts (all of them when keep is nil),
// oldest first, trimmed to the newest limit (0 keeps all). The slice is a
// copy: callers may hold it while the store keeps recording.
func (s *Store[T, P]) Select(limit int, keep func(*T) bool) []T {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.filter(limit, keep)
}

// Dump logs each entry at INFO as msg with the entry's JSON form — the
// object the /v1/debug route serves for it — under "entry", one line per
// entry, and returns how many it wrote. It is the SIGQUIT readout of
// every bounded telemetry buffer.
func Dump[T any](log *slog.Logger, msg string, entries []T) int {
	for i := range entries {
		b, err := json.Marshal(&entries[i])
		if err != nil {
			log.Warn(msg, "err", err)
			continue
		}
		log.Info(msg, "entry", json.RawMessage(b))
	}
	return len(entries)
}
