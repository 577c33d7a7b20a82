package hive

import (
	"math/bits"

	"hivempi/internal/exec"
)

// Bushy join planning. The left-deep loop in planSelect serializes
// every join into one chain, even when the join graph has independent
// halves — Q8 joins (part, supplier, lineitem) and (orders, customer,
// nation, region) through the single l_orderkey = o_orderkey edge. For
// an all-inner FROM, join conditions are plain conjunctive filters, so
// the relations can be bipartitioned into two connected halves, each
// planned left-deep on its own, and joined at the top. The two halves
// share no intermediate directories, so the stage DAG scheduler
// overlaps them.

// planBushy attempts the bushy decomposition. It reports ok=false
// (before emitting any stage) when the query does not qualify: fewer
// than four relations, any non-inner join, missing or duplicate
// aliases, or no bipartition into two connected halves of at least two
// relations each. On success it returns the joined relation and the
// conjuncts still unplaced.
func (p *Planner) planBushy(s *SelectStmt, rels []*relation, aliases []string,
	residual []Node, needed *neededCols, stages *[]*exec.Stage) (*relation, []Node, bool, error) {

	n := len(s.From)
	if n < 4 || n > 12 {
		return nil, nil, false, nil
	}
	idxOf := make(map[string]int, n)
	for i, a := range aliases {
		if a == "" {
			return nil, nil, false, nil
		}
		if _, dup := idxOf[a]; dup {
			return nil, nil, false, nil
		}
		idxOf[a] = i
	}
	for i := 1; i < n; i++ {
		if s.From[i].Join != JoinInnerK {
			return nil, nil, false, nil
		}
	}

	// Pool every condition: for inner joins, ON conjuncts and WHERE
	// conjuncts are interchangeable, so each is consumed at whichever
	// join first sees both of its sides.
	pool := append([]Node{}, residual...)
	for i := 1; i < n; i++ {
		splitConjuncts(s.From[i].On, &pool)
	}

	// Equality edges between relation pairs drive both connectivity and
	// the join order: a relation may only join a half it shares an
	// equality with, or planJoin has no shuffle key.
	adj := make([]uint, n)
	for _, c := range pool {
		cmp, ok := c.(*CmpExpr)
		if !ok || cmp.Op != "=" {
			continue
		}
		mask, allQualified := condMask(c, idxOf)
		if !allQualified || bits.OnesCount(mask) != 2 {
			continue
		}
		i := bits.TrailingZeros(mask)
		j := bits.TrailingZeros(mask &^ (1 << i))
		adj[i] |= 1 << j
		adj[j] |= 1 << i
	}

	full := uint(1)<<n - 1
	if !connectedMask(full, adj) {
		return nil, nil, false, nil
	}

	// Pick the most balanced bipartition with both halves connected.
	// Any cut of a connected graph is crossed by at least one equality
	// edge, so the top join always has a shuffle key. Enumeration order
	// is fixed (relation 0 stays in the first half), keeping plans
	// deterministic.
	var best uint
	bestScore := 0
	for m := uint(1); m < full; m += 2 {
		ca, cb := bits.OnesCount(m), bits.OnesCount(full&^m)
		if ca < 2 || cb < 2 {
			continue
		}
		score := ca
		if cb < score {
			score = cb
		}
		if score <= bestScore {
			continue
		}
		if connectedMask(m, adj) && connectedMask(full&^m, adj) {
			bestScore, best = score, m
		}
	}
	if best == 0 {
		return nil, nil, false, nil
	}

	curA, aAliases, err := p.planGroup(bfsOrder(best, adj), rels, aliases, &pool, needed, stages)
	if err != nil {
		return nil, nil, false, err
	}
	curB, bAliases, err := p.planGroup(bfsOrder(full&^best, adj), rels, aliases, &pool, needed, stages)
	if err != nil {
		return nil, nil, false, err
	}

	// Top join: conditions bridging the halves become the join keys.
	var conds, rest []Node
	for _, c := range pool {
		if bridgesAliases(c, aAliases, bAliases) {
			conds = append(conds, c)
		} else {
			rest = append(rest, c)
		}
	}
	pool = rest
	cur, err := p.planJoin(curA, curB, JoinInnerK, conds, needed, stages)
	if err != nil {
		return nil, nil, false, err
	}
	pool = p.applyResolvable(pool, cur)
	return cur, pool, true, nil
}

// planGroup left-deep joins the relations in order (each guaranteed an
// equality edge to an earlier one by BFS), consuming pooled conditions
// as their sides become available.
func (p *Planner) planGroup(order []int, rels []*relation, aliases []string,
	pool *[]Node, needed *neededCols, stages *[]*exec.Stage) (*relation, map[string]bool, error) {

	cur := rels[order[0]]
	curAliases := map[string]bool{aliases[order[0]]: true}
	*pool = p.applyResolvable(*pool, cur)
	for _, i := range order[1:] {
		var conds, rest []Node
		for _, c := range *pool {
			if p.refersOnly(c, curAliases, aliases[i]) {
				conds = append(conds, c)
			} else {
				rest = append(rest, c)
			}
		}
		*pool = rest
		var err error
		cur, err = p.planJoin(cur, rels[i], JoinInnerK, conds, needed, stages)
		if err != nil {
			return nil, nil, err
		}
		curAliases[aliases[i]] = true
		*pool = p.applyResolvable(*pool, cur)
	}
	return cur, curAliases, nil
}

// applyResolvable runs every conjunct fully resolvable against cur as a
// filter and returns the rest.
func (p *Planner) applyResolvable(pool []Node, cur *relation) []Node {
	var remain []Node
	for _, c := range pool {
		if f, _, err := resolve(c, cur.sch); err == nil {
			p.pushFilter(cur, f)
		} else {
			remain = append(remain, c)
		}
	}
	return remain
}

// condMask reports which relations a condition references; ok is false
// when any ident is unqualified or names an unknown alias.
func condMask(c Node, idxOf map[string]int) (uint, bool) {
	var ids []*Ident
	identsOf(c, &ids)
	var mask uint
	for _, id := range ids {
		i, ok := idxOf[id.Qualifier]
		if !ok {
			return 0, false
		}
		mask |= 1 << i
	}
	return mask, true
}

// bridgesAliases reports whether c references both halves and nothing
// outside them.
func bridgesAliases(c Node, left, right map[string]bool) bool {
	var ids []*Ident
	identsOf(c, &ids)
	usesL, usesR := false, false
	for _, id := range ids {
		switch {
		case left[id.Qualifier]:
			usesL = true
		case right[id.Qualifier]:
			usesR = true
		default:
			return false
		}
	}
	return usesL && usesR
}

// connectedMask reports whether the relations in mask form a connected
// subgraph of the equality-edge graph.
func connectedMask(mask uint, adj []uint) bool {
	if mask == 0 {
		return false
	}
	seen := uint(1) << bits.TrailingZeros(mask)
	for {
		grow := uint(0)
		for m := seen; m != 0; {
			i := bits.TrailingZeros(m)
			m &^= 1 << i
			grow |= adj[i] & mask
		}
		grow &^= seen
		if grow == 0 {
			break
		}
		seen |= grow
	}
	return seen == mask
}

// bfsOrder lists mask's relations in breadth-first order from its
// lowest index, expanding neighbours in index order: every relation
// after the first has an equality edge to an earlier one.
func bfsOrder(mask uint, adj []uint) []int {
	start := bits.TrailingZeros(mask)
	order := []int{start}
	visited := uint(1) << start
	for k := 0; k < len(order); k++ {
		next := adj[order[k]] & mask &^ visited
		for next != 0 {
			i := bits.TrailingZeros(next)
			next &^= 1 << i
			visited |= 1 << i
			order = append(order, i)
		}
	}
	return order
}
