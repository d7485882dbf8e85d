package obs

// ring is the bounded buffer under FlightRecorder, SpanStore and
// EnergyRecorder: it keeps the newest cap(buf) values and evicts the
// oldest once full. It is not safe for concurrent use; each owner holds
// its own mutex around it.
type ring[T any] struct {
	buf  []T
	next int // the oldest slot (and next overwrite) once the buffer is full
}

func newRing[T any](n int) ring[T] { return ring[T]{buf: make([]T, 0, n)} }

func (r *ring[T]) len() int { return len(r.buf) }

// push appends *v, evicting the oldest value when the ring is full. It
// takes a pointer so the recorders' wide structs are copied once, into
// their slot.
func (r *ring[T]) push(v *T) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, *v)
		return
	}
	r.buf[r.next] = *v
	if r.next++; r.next == len(r.buf) {
		r.next = 0
	}
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

// filter copies the values keep accepts, oldest first, and trims the
// result to its newest limit entries (0 keeps all).
func (r *ring[T]) filter(limit int, keep func(*T) bool) []T {
	out := make([]T, 0, len(r.buf))
	for _, part := range [2][]T{r.buf[r.next:], r.buf[:r.next]} {
		for i := range part {
			if keep(&part[i]) {
				out = append(out, part[i])
			}
		}
	}
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}
