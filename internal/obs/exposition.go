package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"vmalloc/internal/config"
)

// This file is the one Prometheus text-exposition writer: the
// `# HELP`/`# TYPE`/label/value grammar lives here and nowhere else
// (`make fence` greps for it). Every /metrics family either daemon
// serves is written through Counter, Gauge, or Declare + Sample;
// histograms go through Histogram.Write, which sits on the same calls.

// Number is a sample value. Integers print in full, floats in
// FormatFloat's shortest round-trip form.
type Number interface {
	int | int64 | uint64 | float64
}

// Declare opens a metric family: its HELP and TYPE lines. typ is
// "counter", "gauge" or "histogram". The family's samples follow.
func Declare(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample writes one sample of a declared family. labels are key, value
// pairs in output order; values are quoted and escaped here.
func Sample[N Number](w io.Writer, name string, v N, labels ...string) {
	if ls := labelSet(labels); ls != "" {
		name += "{" + ls + "}"
	}
	fmt.Fprintf(w, "%s %s\n", name, formatNumber(v))
}

// Counter writes a whole single-sample counter family.
func Counter[N Number](w io.Writer, name, help string, v N) {
	Declare(w, name, help, "counter")
	Sample(w, name, v)
}

// Gauge writes a whole single-sample gauge family.
func Gauge[N Number](w io.Writer, name, help string, v N) {
	Declare(w, name, help, "gauge")
	Sample(w, name, v)
}

// WriteBuildInfo writes the constant-1 build-identity gauge (the
// Prometheus build-info idiom: joinable against any other series) under
// the caller's family name, so a vmgate's own identity cannot collide
// with the shard identities it merges in.
func WriteBuildInfo(w io.Writer, name, help string) {
	b := config.Build()
	Declare(w, name, help, "gauge")
	Sample(w, name, 1, "version", b.Version, "goversion", b.GoVersion,
		"revision", b.Revision, "modified", strconv.FormatBool(b.Modified))
}

// FormatFloat renders a sample value or bucket bound the way the
// exposition format expects ('g', shortest round-trip form).
func FormatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func formatNumber[N Number](v N) string {
	switch x := any(v).(type) {
	case int:
		return strconv.Itoa(x)
	case int64:
		return strconv.FormatInt(x, 10)
	case uint64:
		return strconv.FormatUint(x, 10)
	default:
		return FormatFloat(any(v).(float64))
	}
}

// labelSet renders key, value pairs as `k1="v1",k2="v2"` (no braces).
func labelSet(pairs []string) string {
	var b strings.Builder
	for i := 0; i+1 < len(pairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(pairs[i])
		b.WriteByte('=')
		b.WriteString(strconv.Quote(pairs[i+1]))
	}
	return b.String()
}
