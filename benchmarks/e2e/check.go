package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"

	"hivempi/internal/storage"
	"hivempi/internal/types"
)

// canon renders a row for order-insensitive matching; floats rounded so
// that rows differing only in float noise sort together.
func canon(r types.Row) string {
	parts := make([]string, len(r))
	for i, d := range r {
		if d.K == types.KindFloat {
			parts[i] = fmt.Sprintf("%.3f", d.F)
		} else {
			parts[i] = d.Text()
		}
	}
	return strings.Join(parts, "|")
}

// sortCanon returns rows ordered by their canonical text.
func sortCanon(rows []types.Row) []types.Row {
	keys := make([]string, len(rows))
	idx := make([]int, len(rows))
	for i, r := range rows {
		keys[i], idx[i] = canon(r), i
	}
	sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	out := make([]types.Row, len(rows))
	for i, j := range idx {
		out[i] = rows[j]
	}
	return out
}

// rowsMatch compares two result sets as multisets with a 1e-6 relative
// float tolerance (the rule of refexec's own rowsMatch). want must
// already be in sortCanon order.
func rowsMatch(got, want []types.Row) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, reference has %d", len(got), len(want))
	}
	got = sortCanon(got)
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d: width %d, reference %d", i, len(got[i]), len(want[i]))
		}
		for c := range got[i] {
			g, w := got[i][c], want[i][c]
			if g.K == types.KindFloat || w.K == types.KindFloat {
				gv, wv := g.Float(), w.Float()
				tol := 1e-6 * math.Max(1, math.Max(math.Abs(gv), math.Abs(wv)))
				if g.IsNull() != w.IsNull() || math.Abs(gv-wv) > tol || math.IsNaN(gv) != math.IsNaN(wv) {
					return fmt.Errorf("row %d col %d: %v, reference %v", i, c, g.Text(), w.Text())
				}
				continue
			}
			if g.IsNull() != w.IsNull() || (!g.IsNull() && types.Compare(g, w) != 0) {
				return fmt.Errorf("row %d col %d: %v, reference %v", i, c, g.Text(), w.Text())
			}
		}
	}
	return nil
}

// tableDigest is the per-pass identity of a materialised table: the
// row count the metastore recorded and an FNV-1a hash of every part
// file's bytes, in List order. A pass that writes other values of the
// same count and size does not pass for the warm-up's.
type tableDigest struct {
	rows  int64
	bytes int64
	hash  uint64
}

func digestTable(cl *cluster, name string) (tableDigest, error) {
	t, err := cl.ms.Get(name)
	if err != nil {
		return tableDigest{}, err
	}
	dg := tableDigest{rows: t.Stats.Rows}
	h := fnv.New64a()
	for _, p := range cl.env.FS.List(t.Location) {
		data, err := cl.env.FS.ReadFile(p)
		if err != nil {
			return tableDigest{}, err
		}
		dg.bytes += int64(len(data))
		h.Write(data)
	}
	dg.hash = h.Sum64()
	return dg, nil
}

// readTable decodes every part file of a table.
func readTable(cl *cluster, name string) ([]types.Row, error) {
	t, err := cl.ms.Get(name)
	if err != nil {
		return nil, err
	}
	var rows []types.Row
	for _, p := range cl.env.FS.List(t.Location) {
		part, err := storage.ReadAll(cl.env.FS, p, t.Format, t.Schema)
		if err != nil {
			return nil, fmt.Errorf("read %s: %w", p, err)
		}
		rows = append(rows, part...)
	}
	return rows, nil
}
