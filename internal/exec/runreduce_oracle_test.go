package exec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hivempi/internal/types"
)

// The reference below is the reduce driver as it was before a group
// decoded into one slab: one types.Row and one string per value, one
// fresh row per join output, and one *refAggState per aggregate
// (runmap_oracle_test.go). It is the oracle the slab driver is held
// to, byte for byte, with a sink that keeps every row it is given.

type refReduceDriver struct {
	work    *ReduceWork
	post    RowSink
	keyRow  types.Row
	states  []*refAggState
	buckets [][]types.Row
}

func newRefReduceDriver(work *ReduceWork, out RowSink) (*refReduceDriver, error) {
	post, err := buildPost(work.Post, out)
	if err != nil {
		return nil, err
	}
	return &refReduceDriver{work: work, post: post}, nil
}

func refDecodeRow(buf []byte) (types.Row, int, error) {
	n, used := binary.Uvarint(buf)
	if used <= 0 {
		return nil, 0, fmt.Errorf("decode row: bad column count")
	}
	pos := used
	if n > uint64(len(buf)-pos) {
		return nil, 0, fmt.Errorf("decode row: %d columns in %d bytes", n, len(buf)-pos)
	}
	row := make(types.Row, 0, n)
	for i := uint64(0); i < n; i++ {
		d, c, err := types.DecodeDatum(buf[pos:])
		if err != nil {
			return nil, 0, fmt.Errorf("decode row column %d: %w", i, err)
		}
		row = append(row, d)
		pos += c
	}
	return row, pos, nil
}

func refDecodeKeyDatum(buf []byte, k types.Kind, desc bool) (types.Datum, int, error) {
	if len(buf) == 0 {
		return types.Datum{}, 0, fmt.Errorf("decode key: empty buffer")
	}
	get := func(i int) byte {
		if desc {
			return ^buf[i]
		}
		return buf[i]
	}
	switch get(0) {
	case 0x00:
		return types.Null(), 1, nil
	case 0x01:
		if len(buf) < 9 {
			return types.Datum{}, 0, fmt.Errorf("decode key number: short buffer")
		}
		var tmp [8]byte
		for i := 0; i < 8; i++ {
			tmp[i] = get(1 + i)
		}
		u := binary.BigEndian.Uint64(tmp[:])
		if k == types.KindFloat {
			if u&(1<<63) != 0 {
				u ^= 1 << 63
			} else {
				u = ^u
			}
			return types.Float(math.Float64frombits(u)), 9, nil
		}
		d := types.Datum{K: k, I: int64(u ^ (1 << 63))}
		if k == types.KindBool || k == types.KindInt || k == types.KindDate {
			return d, 9, nil
		}
		return types.Datum{K: types.KindInt, I: d.I}, 9, nil
	case 0x02:
		var out []byte
		i := 1
		for {
			if i >= len(buf) {
				return types.Datum{}, 0, fmt.Errorf("decode key string: unterminated")
			}
			b := get(i)
			if b == 0x00 {
				if i+1 >= len(buf) {
					return types.Datum{}, 0, fmt.Errorf("decode key string: truncated escape")
				}
				next := get(i + 1)
				if next == 0x00 {
					return types.String(string(out)), i + 2, nil
				}
				if next == 0xFF {
					out = append(out, 0x00)
					i += 2
					continue
				}
				return types.Datum{}, 0, fmt.Errorf("decode key string: bad escape %x", next)
			}
			out = append(out, b)
			i++
		}
	default:
		return types.Datum{}, 0, fmt.Errorf("decode key: unknown tag %x", get(0))
	}
}

func (d *refReduceDriver) decodeKey(key []byte) (types.Row, error) {
	out := d.keyRow[:0]
	pos := 0
	for i, k := range d.work.KeyKinds {
		desc := false
		if d.work.KeyDescs != nil && i < len(d.work.KeyDescs) {
			desc = d.work.KeyDescs[i]
		}
		dat, n, err := refDecodeKeyDatum(key[pos:], k, desc)
		if err != nil {
			return nil, fmt.Errorf("exec: decode key column %d: %w", i, err)
		}
		out = append(out, dat)
		pos += n
	}
	d.keyRow = out
	return out, nil
}

func refDecodeValue(val []byte) (int, types.Row, error) {
	if len(val) == 0 {
		return 0, nil, fmt.Errorf("exec: empty shuffle value")
	}
	tag := int(val[0])
	row, _, err := refDecodeRow(val[1:])
	if err != nil {
		return 0, nil, fmt.Errorf("exec: decode shuffle value: %w", err)
	}
	return tag, row, nil
}

func (d *refReduceDriver) Feed(key []byte, values [][]byte) error {
	keyRow, err := d.decodeKey(key)
	if err != nil {
		return err
	}
	switch op := d.work.Op.(type) {
	case *GroupByReduce:
		return d.feedGroupBy(op, keyRow, values)
	case *JoinReduce:
		return d.feedJoin(op, values)
	case *ExtractReduce:
		for _, v := range values {
			_, row, err := refDecodeValue(v)
			if err != nil {
				return err
			}
			if err := d.post(row); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("exec: unknown reduce op %T", d.work.Op)
	}
}

func (d *refReduceDriver) feedGroupBy(op *GroupByReduce, keyRow types.Row, values [][]byte) error {
	if d.states == nil {
		d.states = make([]*refAggState, len(op.Aggs))
		for i, spec := range op.Aggs {
			d.states[i] = newRefAggState(spec)
		}
	}
	states := d.states
	for _, st := range states {
		st.reset()
	}
	for _, v := range values {
		_, row, err := refDecodeValue(v)
		if err != nil {
			return err
		}
		if op.Complete {
			if len(row) != len(op.Aggs) {
				return fmt.Errorf("exec: raw agg row width %d, want %d", len(row), len(op.Aggs))
			}
			for i, st := range states {
				if op.Aggs[i].Kind == AggCountStar {
					st.count++
					continue
				}
				st.UpdateDatum(row[i])
			}
			continue
		}
		pos := 0
		for i, st := range states {
			w := op.Aggs[i].PartialWidth()
			if pos+w > len(row) {
				return fmt.Errorf("exec: partial agg row too narrow (%d < %d)", len(row), pos+w)
			}
			if err := st.MergePartial(row[pos : pos+w]); err != nil {
				return err
			}
			pos += w
		}
	}
	out := make(types.Row, 0, len(keyRow)+len(states))
	out = append(out, keyRow...)
	for _, st := range states {
		out = append(out, st.Final())
	}
	return d.post(out)
}

func (d *refReduceDriver) feedJoin(op *JoinReduce, values [][]byte) error {
	if d.buckets == nil {
		d.buckets = make([][]types.Row, op.TagCount)
	}
	buckets := d.buckets
	for t := range buckets {
		clear(buckets[t])
		buckets[t] = buckets[t][:0]
	}
	for _, v := range values {
		tag, row, err := refDecodeValue(v)
		if err != nil {
			return err
		}
		if tag < 0 || tag >= op.TagCount {
			return fmt.Errorf("exec: join tag %d out of range %d", tag, op.TagCount)
		}
		if len(row) != op.ValueWidths[tag] {
			return fmt.Errorf("exec: join tag %d row width %d, want %d",
				tag, len(row), op.ValueWidths[tag])
		}
		buckets[tag] = append(buckets[tag], row)
	}
	acc := buckets[0]
	accWidth := op.ValueWidths[0]
	for t := 1; t < op.TagCount; t++ {
		jt := JoinInner
		if t-1 < len(op.JoinTypes) {
			jt = op.JoinTypes[t-1]
		}
		right := buckets[t]
		rightWidth := op.ValueWidths[t]
		var next []types.Row
		switch {
		case len(right) == 0 && jt == JoinLeftOuter:
			nulls := make(types.Row, rightWidth)
			for _, l := range acc {
				out := make(types.Row, 0, accWidth+rightWidth)
				out = append(out, l...)
				out = append(out, nulls...)
				next = append(next, out)
			}
		case len(right) == 0 || len(acc) == 0:
			next = nil
		default:
			for _, l := range acc {
				for _, r := range right {
					out := make(types.Row, 0, accWidth+rightWidth)
					out = append(out, l...)
					out = append(out, r...)
					next = append(next, out)
				}
			}
		}
		acc = next
		accWidth += rightWidth
		if len(acc) == 0 {
			return nil
		}
	}
	for _, row := range acc {
		if err := d.post(row); err != nil {
			return err
		}
	}
	return nil
}

// feeder is either driver.
type feeder interface {
	Feed(key []byte, values [][]byte) error
}

// oracleGroup is one encoded Feed input.
type oracleGroup struct {
	key    []byte
	values [][]byte
}

// randDatum draws a datum of kind k, NULL one time in seven. Strings
// are short over a small alphabet holding NUL and 0xFF, so groups
// repeat values (DISTINCT, min/max ties) and the empty string appears.
func randDatum(rng *rand.Rand, k types.Kind) types.Datum {
	if rng.Intn(7) == 0 {
		return types.Null()
	}
	switch k {
	case types.KindBool:
		return types.Bool(rng.Intn(2) == 0)
	case types.KindInt:
		return types.Int(rng.Int63n(21) - 10)
	case types.KindFloat:
		return types.Float(float64(rng.Intn(9)) / 4)
	case types.KindDate:
		return types.Datum{K: types.KindDate, I: 9000 + rng.Int63n(5)}
	case types.KindString:
		const alphabet = "ab\x00\xffz"
		b := make([]byte, rng.Intn(4))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return types.String(string(b))
	}
	return types.Null()
}

func randRow(rng *rand.Rand, kinds []types.Kind) types.Row {
	row := make(types.Row, len(kinds))
	for i, k := range kinds {
		row[i] = randDatum(rng, k)
	}
	return row
}

// oracleGroups draws n groups for work. value(rng) returns one value's
// tag and row; a group holds 0..maxVals of them (at least one unless
// the op is a join, whose empty sides matter).
func oracleGroups(rng *rand.Rand, work *ReduceWork, n, maxVals int,
	value func(*rand.Rand) (byte, types.Row)) []oracleGroup {
	groups := make([]oracleGroup, n)
	for g := range groups {
		key := types.EncodeKey(nil, randRow(rng, work.KeyKinds), work.KeyDescs)
		nv := rng.Intn(maxVals + 1)
		if _, join := work.Op.(*JoinReduce); !join && nv == 0 {
			nv = 1
		}
		vals := make([][]byte, nv)
		for i := range vals {
			tag, row := value(rng)
			vals[i] = types.EncodeRow([]byte{tag}, row)
		}
		groups[g] = oracleGroup{key: key, values: vals}
	}
	return groups
}

// runOracle feeds groups through drv with a sink that keeps every row
// it is given, poisoning the key and value buffers after each Feed as
// an engine reusing them would. It returns the kept rows' encodings,
// taken only once the last group is in, and the first error.
func runOracle(t *testing.T, mk func(RowSink) (feeder, error), groups []oracleGroup) ([]byte, error) {
	t.Helper()
	var kept []types.Row
	drv, err := mk(func(r types.Row) error {
		kept = append(kept, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range groups {
		key := bytes.Clone(g.key)
		vals := make([][]byte, len(g.values))
		for i, v := range g.values {
			vals[i] = bytes.Clone(v)
		}
		if err := drv.Feed(key, vals); err != nil {
			return nil, err
		}
		for _, b := range append(vals, key) {
			for i := range b {
				b[i] = 0xFF
			}
		}
	}
	var out []byte
	for _, r := range kept {
		out = types.EncodeRow(out, r)
	}
	return out, nil
}

func refFeeder(work *ReduceWork) func(RowSink) (feeder, error) {
	return func(sink RowSink) (feeder, error) { return newRefReduceDriver(work, sink) }
}

func slabFeeder(t *testing.T, work *ReduceWork) func(RowSink) (feeder, error) {
	return func(sink RowSink) (feeder, error) { return NewReduceDriver(testEnv(t), work, sink, nil) }
}

// TestReduceDriverMatchesOracle holds the slab driver to the reference
// over seeded groups of every reduce op, with a sink that keeps rows.
func TestReduceDriverMatchesOracle(t *testing.T) {
	S, I, F, B, D := types.KindString, types.KindInt, types.KindFloat, types.KindBool, types.KindDate
	untagged := func(kinds []types.Kind) func(*rand.Rand) (byte, types.Row) {
		return func(rng *rand.Rand) (byte, types.Row) { return 0, randRow(rng, kinds) }
	}
	tagged := func(widths ...[]types.Kind) func(*rand.Rand) (byte, types.Row) {
		return func(rng *rand.Rand) (byte, types.Row) {
			tag := rng.Intn(len(widths))
			return byte(tag), randRow(rng, widths[tag])
		}
	}
	// A filter passes the rows it keeps straight to the sink.
	nonNull := []MapOp{&FilterOp{Cond: &IsNull{E: col(0), Negate: true}}}
	cases := []struct {
		name  string
		work  *ReduceWork
		value func(*rand.Rand) (byte, types.Row)
	}{
		{"groupby-complete", &ReduceWork{
			KeyKinds: []types.Kind{S, I}, KeyDescs: []bool{true, false},
			Op: &GroupByReduce{Complete: true, Aggs: []AggSpec{
				{Kind: AggCount, Arg: col(0), Distinct: true},
				{Kind: AggMin, Arg: col(1)},
				{Kind: AggMax, Arg: col(2)},
				{Kind: AggSum, Arg: col(3)},
				{Kind: AggAvg, Arg: col(4)},
				{Kind: AggCountStar},
				{Kind: AggMax, Arg: col(6)},
			}},
		}, untagged([]types.Kind{S, S, S, F, I, I, D})},
		{"groupby-partial", &ReduceWork{
			KeyKinds: []types.Kind{S},
			Op: &GroupByReduce{Aggs: []AggSpec{
				{Kind: AggSum, Arg: col(0)}, {Kind: AggAvg, Arg: col(1)},
				{Kind: AggMin, Arg: col(2)}, {Kind: AggMax, Arg: col(3)},
				{Kind: AggCount, Arg: col(4)},
			}},
			Post: nonNull,
		}, untagged([]types.Kind{I, F, I, S, S, I})},
		{"join2-inner", &ReduceWork{
			KeyKinds: []types.Kind{I},
			Op:       &JoinReduce{TagCount: 2, ValueWidths: []int{2, 3}, JoinTypes: []JoinType{JoinInner}},
		}, tagged([]types.Kind{S, F}, []types.Kind{S, D, B})},
		{"join2-outer", &ReduceWork{
			KeyKinds: []types.Kind{S}, KeyDescs: []bool{true},
			Op:   &JoinReduce{TagCount: 2, ValueWidths: []int{1, 2}, JoinTypes: []JoinType{JoinLeftOuter}},
			Post: nonNull,
		}, tagged([]types.Kind{S}, []types.Kind{I, S})},
		{"join3", &ReduceWork{
			KeyKinds: []types.Kind{D, S},
			Op: &JoinReduce{TagCount: 3, ValueWidths: []int{1, 2, 1},
				JoinTypes: []JoinType{JoinLeftOuter, JoinInner}},
		}, tagged([]types.Kind{S}, []types.Kind{S, I}, []types.Kind{F})},
		{"join3-inner-outer", &ReduceWork{
			KeyKinds: []types.Kind{I},
			Op: &JoinReduce{TagCount: 3, ValueWidths: []int{2, 1, 0},
				JoinTypes: []JoinType{JoinInner, JoinLeftOuter}},
		}, tagged([]types.Kind{S, B}, []types.Kind{S}, nil)},
		{"extract", &ReduceWork{
			KeyKinds: []types.Kind{F, S}, KeyDescs: []bool{false, true},
			Op: &ExtractReduce{ValueWidth: 5},
		}, untagged([]types.Kind{S, I, F, B, D})},
	}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				rng := rand.New(rand.NewSource(seed*31 + int64(i)))
				groups := oracleGroups(rng, c.work, 60, 6, c.value)
				want, err := runOracle(t, refFeeder(c.work), groups)
				if err != nil {
					t.Fatalf("seed %d: reference: %v", seed, err)
				}
				got, err := runOracle(t, slabFeeder(t, c.work), groups)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if len(want) == 0 {
					t.Fatalf("seed %d: reference emitted nothing", seed)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("seed %d: kept rows differ from the reference (%d vs %d bytes)", seed, len(got), len(want))
				}
			}
		})
	}
}

// TestReduceDriverHostileValuesMatchOracle: a group holding one bad
// value or key fails with the reference's error text, for every op.
func TestReduceDriverHostileValuesMatchOracle(t *testing.T) {
	good := types.EncodeRow([]byte{0}, types.Row{types.String("x")})
	hostile := map[string]oracleGroup{
		"empty value":      {values: [][]byte{{}}},
		"bad column count": {values: [][]byte{{0, 0x80}}},
		"count over bytes": {values: [][]byte{{0, 5, 0}}},
		"unknown kind":     {values: [][]byte{{0, 1, 200}}},
		"truncated string": {values: [][]byte{{0, 1, byte(types.KindString), 5, 'a'}}},
		"truncated float":  {values: [][]byte{{0, 1, byte(types.KindFloat), 1, 2}}},
		"bad value after":  {values: [][]byte{good, {0, 2, byte(types.KindInt)}}},
		"tag out of range": {values: [][]byte{types.EncodeRow([]byte{7}, types.Row{types.Int(1)})}},
		"wrong width":      {values: [][]byte{types.EncodeRow([]byte{0}, types.Row{types.Int(1), types.Int(2)})}},
		"unterminated key": {key: []byte{0x02, 'a'}, values: [][]byte{good}},
		"short number key": {key: []byte{0x01, 0, 0}, values: [][]byte{good}},
		"bad key escape":   {key: []byte{0x02, 0x00, 0x07}, values: [][]byte{good}},
		"unknown key tag":  {key: []byte{0x09}, values: [][]byte{good}},
		"empty key":        {key: []byte{}, values: [][]byte{good}},
		"truncated escape": {key: []byte{0x02, 'a', 0x00}, values: [][]byte{good}},
		"narrow partial":   {values: [][]byte{types.EncodeRow([]byte{0}, types.Row{})}},
		"raw width":        {values: [][]byte{types.EncodeRow([]byte{0}, types.Row{types.Int(1), types.Int(2)})}},
	}
	works := map[string]*ReduceWork{
		"partial":  {KeyKinds: []types.Kind{types.KindString}, Op: &GroupByReduce{Aggs: []AggSpec{{Kind: AggMin, Arg: col(0)}}}},
		"complete": {KeyKinds: []types.Kind{types.KindString}, Op: &GroupByReduce{Complete: true, Aggs: []AggSpec{{Kind: AggMax, Arg: col(0)}}}},
		"join":     {KeyKinds: []types.Kind{types.KindString}, Op: &JoinReduce{TagCount: 2, ValueWidths: []int{1, 1}}},
		"extract":  {KeyKinds: []types.Kind{types.KindString}, Op: &ExtractReduce{ValueWidth: 1}},
	}
	validKey := types.AppendKeyDatum(nil, types.String("k"), false)
	for wname, work := range works {
		for hname, g := range hostile {
			if g.key == nil {
				g.key = validKey
			}
			groups := []oracleGroup{g}
			_, want := runOracle(t, refFeeder(work), groups)
			_, got := runOracle(t, slabFeeder(t, work), groups)
			if (want == nil) != (got == nil) || (want != nil && got.Error() != want.Error()) {
				t.Errorf("%s / %s: got %v, want %v", wname, hname, got, want)
			}
		}
	}
}

// TestReduceFeedAllocs: a group costs the same number of allocations
// whether it holds 8 values or 512, for a join and for a group-by.
func TestReduceFeedAllocs(t *testing.T) {
	for name, mk := range map[string]func(n int) (*ReduceWork, []byte, [][]byte){
		"join":    benchJoinGroup,
		"groupby": benchGroupByGroup,
	} {
		var allocs [2]float64
		for i, n := range []int{8, 512} {
			work, key, values := mk(n)
			rd, err := NewReduceDriver(testEnv(t), work, func(types.Row) error { return nil }, nil)
			if err != nil {
				t.Fatal(err)
			}
			allocs[i] = testing.AllocsPerRun(20, func() {
				if err := rd.Feed(key, values); err != nil {
					t.Fatal(err)
				}
			})
		}
		if allocs[1] > allocs[0] {
			t.Errorf("%s: %.0f allocations per group of 512 values, %.0f per group of 8", name, allocs[1], allocs[0])
		}
	}
}
