package hive

// Compiled-plan cache. Hive recompiles every statement from scratch;
// for repeated queries (dashboards, benchmark loops) the parse + plan
// work is pure overhead — the paper's perfmodel charges 1.2 virtual
// seconds of compile per query. The cache keys on the statement's
// normalized token stream (number and string literals parameterized
// out to "?"), so a lookup needs only a lex, not a parse. An entry is
// reusable when its literal vector matches exactly (this repo has no
// bind-parameter substitution, so differing literals are a miss), the
// metastore catalog is unchanged, and the planner-relevant driver
// knobs are identical.
//
// Cached plans re-resolve their input splits from the DFS at run time,
// so data appended without a catalog change still flows through; any
// DDL, load or stats update bumps Metastore.Version and invalidates.

import (
	"container/list"
	"fmt"
	"strings"

	"hivempi/internal/exec"
)

// DefaultPlanCacheEntries bounds the LRU when the driver enables the
// cache without an explicit capacity.
const DefaultPlanCacheEntries = 64

// PlanCache is an LRU of compiled SELECT plans. Not safe for
// concurrent use; the driver executes statements serially.
type PlanCache struct {
	cap     int
	lru     *list.List // front = most recently used
	entries map[string]*list.Element

	hits      int64
	misses    int64
	evictions int64
}

// planEntry is one cached compilation.
type planEntry struct {
	key         string   // normalized statement text
	literals    []string // literal vector; must match exactly to reuse
	msVersion   int64    // Metastore.Version at plan time
	fingerprint string   // planner-relevant driver knobs
	stages      []*exec.Stage
	outSch      relSchema
	qtmp        string // stage tmp root baked into the plan's paths
}

// NewPlanCache builds a cache holding up to capacity plans
// (DefaultPlanCacheEntries when capacity <= 0).
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		capacity = DefaultPlanCacheEntries
	}
	return &PlanCache{
		cap:     capacity,
		lru:     list.New(),
		entries: make(map[string]*list.Element),
	}
}

// Stats reports lifetime hit/miss/eviction counts.
func (pc *PlanCache) Stats() (hits, misses, evictions int64) {
	return pc.hits, pc.misses, pc.evictions
}

// Len reports the number of cached plans.
func (pc *PlanCache) Len() int { return pc.lru.Len() }

// lookup returns the cached plan for the key, if present, still valid
// for the current catalog version and conf fingerprint, and bound to
// the same literal vector. Stale entries are dropped (counted as
// evictions); every unsuccessful path counts a miss.
func (pc *PlanCache) lookup(key string, literals []string, msVersion int64, fingerprint string) *planEntry {
	el, ok := pc.entries[key]
	if !ok {
		pc.misses++
		return nil
	}
	e := el.Value.(*planEntry)
	if e.msVersion != msVersion || e.fingerprint != fingerprint {
		// Catalog or config moved on: the plan can never hit again.
		pc.lru.Remove(el)
		delete(pc.entries, key)
		pc.evictions++
		pc.misses++
		return nil
	}
	if !equalStrings(e.literals, literals) {
		// Same shape, different constants; keep the entry (the original
		// literals may recur) but this statement must compile.
		pc.misses++
		return nil
	}
	pc.lru.MoveToFront(el)
	pc.hits++
	return e
}

// put inserts a freshly compiled plan, evicting the least recently
// used entry beyond capacity.
func (pc *PlanCache) put(e *planEntry) {
	if el, ok := pc.entries[e.key]; ok {
		el.Value = e
		pc.lru.MoveToFront(el)
		return
	}
	pc.entries[e.key] = pc.lru.PushFront(e)
	for pc.lru.Len() > pc.cap {
		back := pc.lru.Back()
		pc.lru.Remove(back)
		delete(pc.entries, back.Value.(*planEntry).key)
		pc.evictions++
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// normalizePlanKey lexes sql and renders its token stream with every
// number and string literal replaced by "?", returning the normalized
// text, the extracted literal vector, whether the statement carried an
// EXPLAIN ANALYZE prefix, and whether it is a cacheable SELECT.
// Whitespace and comments vanish in lexing, so reformatted statements
// share a key; identifier case folds in the lexer for the same reason.
func normalizePlanKey(sql string) (key string, literals []string, analyzed, cacheable bool) {
	toks, err := lex(sql)
	if err != nil || len(toks) == 0 {
		return "", nil, false, false
	}
	// EXPLAIN ANALYZE really executes the inner statement, so it is
	// cache-equivalent to the bare SELECT: skip the prefix and share
	// the key. Plain EXPLAIN never executes and stays uncacheable.
	if len(toks) > 2 && toks[0].kind == tokKeyword && strings.EqualFold(toks[0].text, "explain") &&
		toks[1].kind == tokKeyword && strings.EqualFold(toks[1].text, "analyze") {
		toks = toks[2:]
		analyzed = true
	}
	if !(toks[0].kind == tokKeyword && strings.EqualFold(toks[0].text, "select")) {
		return "", nil, false, false
	}
	var sb strings.Builder
	for _, t := range toks {
		switch t.kind {
		case tokEOF:
			continue
		case tokNumber:
			// The literal vector is a handful of bounded concats per
			// cache *miss* (once per distinct statement shape), not
			// per-record work; a reusable buffer would outlive the
			// returned strings anyway.
			//lint:ignore hivelint/hotalloc bounded per-statement cache-miss work, not per-record
			literals = append(literals, "N:"+t.text)
			sb.WriteString("? ")
			continue
		case tokString:
			//lint:ignore hivelint/hotalloc bounded per-statement cache-miss work, not per-record
			literals = append(literals, "S:"+t.text)
			sb.WriteString("? ")
			continue
		case tokKeyword:
			sb.WriteString(strings.ToLower(t.text))
		default:
			sb.WriteString(t.text)
		}
		sb.WriteByte(' ')
	}
	return sb.String(), literals, analyzed, true
}

// planFingerprint captures the driver knobs that change what the
// planner emits; plans compiled under different knobs never collide.
// The cluster epoch rides along so a plan sized for one topology is
// invalidated by any membership transition — a cache hit after a node
// death used to replay reducer counts and task placement for the dead
// shape.
func (d *Driver) planFingerprint() string {
	var epoch int64
	if d.Cluster != nil {
		epoch = d.Cluster.Epoch()
	}
	return fmt.Sprintf("mj=%d|agg=%t|proj=%t|push=%t|ce=%d",
		d.MapJoinThresholdBytes, d.DisableMapAggregation,
		d.DisableProjection, d.DisablePushdown, epoch)
}
