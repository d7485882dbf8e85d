package shard

import (
	"cmp"
	"errors"
	"fmt"
	"io"

	"vmalloc/internal/obs"
)

// MergeExpositions merges the expositions payloads[i] of shards[i] into
// one: every sample gains a shard="name" label (first label, before any
// existing ones) and keeps its value's bytes, and families that appear
// on several shards are regrouped contiguously under a single HELP and
// TYPE line, each the first shard's that has one. A plain concatenation
// would declare e.g. vmalloc_cluster_admissions_total twice, which
// scrapers reject. A payload obs.ReadExposition cannot read is skipped
// like a nil one (a failed scrape), and its error, naming the shard, is
// returned.
func MergeExpositions(w io.Writer, shards []Shard, payloads [][]byte) (err error) {
	var names []string                  // families, in first-seen order
	fams := make(map[string][]obs.Line) // family → its first HELP line, its first TYPE line, its samples relabelled
	for i, s := range shards {
		lines, rerr := obs.ReadExposition(payloads[i])
		if rerr != nil {
			err = errors.Join(err, fmt.Errorf("shard %s: %w", s.Name, rerr))
			continue
		}
		fam := "" // the family the shard's last declaration opened
		for _, l := range lines {
			if l.Kind != "" {
				fam = l.Name
			}
			key := cmp.Or(fam, l.Name) // a sample before any declaration is grouped under its own name
			f, seen := fams[key]
			if !seen {
				names, f = append(names, key), make([]obs.Line, 2)
			}
			switch {
			case l.Kind == "HELP" && f[0].Kind == "":
				f[0] = l
			case l.Kind == "TYPE" && f[1].Kind == "":
				f[1] = l
			case l.Kind == "":
				l.Labels = append([]string{"shard", s.Name}, l.Labels...)
				f = append(f, l)
			}
			fams[key] = f
		}
	}
	for _, name := range names {
		for _, l := range fams[name] {
			if l.Name != "" { // not a HELP or TYPE line no shard wrote
				fmt.Fprintln(w, l)
			}
		}
	}
	return err
}
