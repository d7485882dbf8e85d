package obs

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"vmalloc/internal/config"
)

// This file is the one Prometheus text-exposition writer and reader:
// the `# HELP`/`# TYPE`/label/value grammar lives here and nowhere else
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
	fmt.Fprintln(w, Line{Name: name, Labels: labels, Text: formatNumber(v)})
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

// labelSet renders key, value pairs as `k1="v1",k2="v2"` (no braces),
// leaving out the pairs whose keys are in drop.
func labelSet(pairs []string, drop ...string) string {
	var b strings.Builder
	for i := 0; i+1 < len(pairs); i += 2 {
		if slices.Contains(drop, pairs[i]) {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(pairs[i])
		b.WriteByte('=')
		b.WriteString(strconv.Quote(pairs[i+1]))
	}
	return b.String()
}

// Line is one line of an exposition, as ReadExposition reads it.
type Line struct {
	Kind   string   // "HELP", "TYPE", or "" for a sample
	Name   string   // the family a HELP/TYPE line declares, or the sample's series name
	Text   string   // the HELP/TYPE text, or the sample's value as written
	Labels []string // a sample's labels: key, value pairs in order, values unquoted
	Value  float64  // a sample's value
}

// Series renders a sample's name and labels the way Sample writes them,
// without the labels whose keys are in drop.
func (l Line) Series(drop ...string) string {
	if ls := labelSet(l.Labels, drop...); ls != "" {
		return l.Name + "{" + ls + "}"
	}
	return l.Name
}

// String renders l as the line it reads from: a declaration as
// `# KIND name text`, a sample as its Series and its value as written.
func (l Line) String() string {
	if l.Kind != "" {
		return "# " + l.Kind + " " + l.Name + " " + l.Text
	}
	return l.Series() + " " + l.Text
}

// ReadExposition reads what this file writes, one Line per non-blank
// line: `# HELP name text`, `# TYPE name type`, and `name value` or
// `name{k="v",...} value`, label values quoted as strconv.Quote does.
// Any other line, another comment among them, is an error naming it.
// Where declarations stand and what samples say is for its callers.
func ReadExposition(data []byte) ([]Line, error) {
	var lines []Line
	for n, s := range strings.Split(string(data), "\n") {
		if s == "" {
			continue
		}
		l, why := readLine(s)
		if why != "" {
			return nil, fmt.Errorf("exposition line %d %q: %s", n+1, s, why)
		}
		lines = append(lines, l)
	}
	return lines, nil
}

// readLine reads one non-blank line, or says why it cannot.
func readLine(s string) (l Line, why string) {
	if s[0] == '#' {
		f := strings.SplitN(s, " ", 4)
		if len(f) < 4 || f[0] != "#" || f[1] != "HELP" && f[1] != "TYPE" || !validName(f[2]) {
			return l, "malformed comment"
		}
		return Line{Kind: f[1], Name: f[2], Text: f[3]}, ""
	}
	i := strings.LastIndexByte(s, ' ') // a value holds no space, a label value may
	if i < 0 {
		return l, "no value"
	}
	l.Text = s[i+1:]
	var err error
	if l.Value, err = strconv.ParseFloat(l.Text, 64); err != nil {
		return l, "bad value"
	}
	name, set, braced := strings.Cut(s[:i], "{")
	set, closed := strings.CutSuffix(set, "}")
	if l.Name = name; closed != braced || !validName(name) {
		return l, "malformed series"
	}
	for set != "" {
		key, rest, _ := strings.Cut(set, "=")
		q, err := strconv.QuotedPrefix(rest)
		if !validName(key) || err != nil || q[0] != '"' || len(q) < len(rest) && rest[len(q)] != ',' {
			return l, "malformed label"
		}
		v, _ := strconv.Unquote(q)
		l.Labels, set = append(l.Labels, key, v), strings.TrimPrefix(rest[len(q):], ",")
	}
	return l, ""
}

// validName reports whether s is a metric or label name.
func validName(s string) bool {
	const chars = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:"
	return s != "" && strings.Trim(s, chars) == "" && (s[0] < '0' || s[0] > '9')
}
