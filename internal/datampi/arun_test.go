package datampi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"hivempi/internal/kvio"
	"hivempi/internal/testutil/leakcheck"
)

// refABlocks replays the O side's Send Partition List for one O rank:
// a pair joins its partition's block, a block that reaches the send
// buffer size leaves, and finalize sends the rest in partition order.
// With a single O rank this is also the order each A task receives in.
func refABlocks(kvs []kvio.KV, cfg Config) [][][]byte {
	blocks := make([][][]byte, cfg.NumA)
	open := make([][]byte, cfg.NumA)
	for _, p := range kvs {
		part := cfg.Partitioner(p.Key, cfg.NumA)
		open[part] = kvio.AppendKV(open[part], p.Key, p.Value)
		if len(open[part]) >= cfg.SendBufferBytes {
			blocks[part] = append(blocks[part], open[part])
			open[part] = nil
		}
	}
	for part, b := range open {
		if b != nil {
			blocks[part] = append(blocks[part], b)
		}
	}
	return blocks
}

// refAReceive is the A side as it stood before the sorted-run buffer:
// every block decoded into []kvio.KV and appended to the cache, the
// cache put through kvio.Sort and written pair by pair when it passes
// the budget, and the residual cache merged first, ahead of the spill
// runs. It returns each spill run's bytes and the NextGroup stream
// (encoded by groupStream).
func refAReceive(blocks [][]byte, budget int64) (spills [][]byte, stream []byte, err error) {
	var cache []kvio.KV
	var cacheBytes int64
	spill := func() {
		if len(cache) == 0 {
			return
		}
		kvio.Sort(cache)
		var run []byte
		for _, p := range cache {
			run = kvio.AppendKV(run, p.Key, p.Value)
		}
		spills = append(spills, run)
		cache, cacheBytes = nil, 0
	}
	for _, b := range blocks {
		kvs, err := kvio.DecodeAllInto(nil, b)
		if err != nil {
			return nil, nil, err
		}
		cache = append(cache, kvs...)
		cacheBytes += int64(len(b))
		if cacheBytes > budget {
			spill()
		}
	}
	kvio.Sort(cache)
	var sources []kvio.Source
	if len(cache) > 0 {
		sources = append(sources, &kvio.SliceSource{KVs: cache})
	}
	for _, run := range spills {
		sources = append(sources, &kvio.WireSource{Buf: run})
	}
	m, err := kvio.NewMerge(sources)
	if err != nil {
		return nil, nil, err
	}
	stream, err = groupStream(kvio.NewGrouper(m).NextGroup)
	return spills, stream, err
}

// groupStream drains a NextGroup iterator into one byte string: per
// group, the value count, the key and every value in order.
func groupStream(next func() ([]byte, [][]byte, error)) ([]byte, error) {
	var out []byte
	for {
		key, vals, err := next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = binary.AppendUvarint(out, uint64(len(vals)))
		out = kvio.AppendKV(out, key, nil)
		for _, v := range vals {
			out = kvio.AppendKV(out, nil, v)
		}
	}
}

// aShapes are the pair streams the A-side oracle runs.
func aShapes() []struct {
	name  string
	pairs func(rng *rand.Rand) []kvio.KV
} {
	randBytes := func(rng *rand.Rand, n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	return []struct {
		name  string
		pairs func(rng *rand.Rand) []kvio.KV
	}{
		{"hot key with thousands of values", func(rng *rand.Rand) []kvio.KV {
			// The text_skew shape: one key carries most pairs, each with
			// its own value, over a Zipf tail of cold keys.
			zipf := rand.NewZipf(rng, 1.2, 1, 500)
			kvs := make([]kvio.KV, 6000)
			for i := range kvs {
				key := []byte("hot")
				if rng.Intn(3) == 0 {
					key = []byte("k" + strconv.FormatUint(zipf.Uint64(), 10))
				}
				kvs[i] = kvio.KV{Key: key, Value: []byte(strconv.Itoa(rng.Intn(1 << 20)))}
			}
			return kvs
		}},
		{"all keys distinct", func(rng *rand.Rand) []kvio.KV {
			kvs := make([]kvio.KV, 3000)
			for i, j := range rng.Perm(len(kvs)) {
				kvs[i] = kvio.KV{Key: []byte(fmt.Sprintf("key-%05d", j)), Value: randBytes(rng, rng.Intn(12))}
			}
			return kvs
		}},
		{"exact duplicate pairs", func(rng *rand.Rand) []kvio.KV {
			kvs := make([]kvio.KV, 3000)
			for i := range kvs {
				kvs[i] = kvio.KV{Key: []byte{"abc"[rng.Intn(3)]}, Value: []byte{"xy"[rng.Intn(2)]}}
			}
			return kvs
		}},
		{"empty keys and values", func(rng *rand.Rand) []kvio.KV {
			kvs := make([]kvio.KV, 2000)
			for i := range kvs {
				if rng.Intn(3) > 0 {
					kvs[i].Value = []byte{byte(rng.Intn(4))}
				}
				if rng.Intn(3) == 0 {
					kvs[i].Key = []byte{byte(rng.Intn(2))}
				}
			}
			return kvs
		}},
		{"lengths of 128 bytes and more", func(rng *rand.Rand) []kvio.KV {
			kvs := make([]kvio.KV, 600)
			for i := range kvs {
				key := bytes.Repeat([]byte{"pq"[rng.Intn(2)]}, 120+rng.Intn(30))
				kvs[i] = kvio.KV{Key: key, Value: randBytes(rng, 100+rng.Intn(400))}
			}
			return kvs
		}},
	}
}

// TestARunMatchesReference is the A side's order oracle: with one O
// rank the arrival order is fixed, and every spill run and the whole
// NextGroup stream must equal, byte for byte, what refAReceive makes of
// the same blocks — for 0, 1 and many spills, in both shuffle styles.
func TestARunMatchesReference(t *testing.T) {
	defer leakcheck.Check(t)()
	for _, sh := range aShapes() {
		kvs := sh.pairs(rand.New(rand.NewSource(7)))
		total := 0
		for _, p := range kvs {
			total += p.WireSize()
		}
		for _, spills := range []struct {
			name   string
			budget int // A-side memory budget in bytes
		}{
			{"no spill", 4 * total},
			{"one spill", total * 3 / 8},
			{"many spills", total / 16},
		} {
			for _, nonBlocking := range []bool{true, false} {
				name := fmt.Sprintf("%s/%s/non-blocking=%v", sh.name, spills.name, nonBlocking)
				t.Run(name, func(t *testing.T) {
					runs := kvio.RunsOutstanding()
					cfg := Config{NumO: 1, NumA: 2, NonBlocking: nonBlocking, SendBufferBytes: 2 << 10,
						MemUsedPercent: 0.5, TaskMemoryBytes: int64(2 * spills.budget)}
					job, err := NewJob(cfg)
					if err != nil {
						t.Fatal(err)
					}
					var mu sync.Mutex
					gotSpills := make([][][]byte, cfg.NumA)
					gotStream := make([][]byte, cfg.NumA)
					err = job.Run(func(o *OContext) error {
						scratch := make([]byte, 0, 256)
						for _, p := range kvs {
							// Send must copy: hand it a key that is
							// overwritten straight after.
							scratch = append(scratch[:0], p.Key...)
							if err := o.Send(scratch, p.Value); err != nil {
								return err
							}
							clear(scratch)
						}
						return nil
					}, func(a *AContext) error {
						var runs [][]byte
						for _, run := range a.spills {
							// Copied: the run goes back to the pool when
							// the body returns.
							runs = append(runs, bytes.Clone(run.Bytes()))
						}
						stream, err := groupStream(a.NextGroup)
						mu.Lock()
						gotSpills[a.Rank()], gotStream[a.Rank()] = runs, stream
						mu.Unlock()
						return err
					})
					if err != nil {
						t.Fatal(err)
					}
					budget := int64(cfg.MemUsedPercent * float64(cfg.TaskMemoryBytes))
					spilled := 0
					for a, blocks := range refABlocks(kvs, job.cfg) {
						wantSpills, wantStream, err := refAReceive(blocks, budget)
						if err != nil {
							t.Fatal(err)
						}
						spilled += len(wantSpills)
						if len(gotSpills[a]) != len(wantSpills) {
							t.Fatalf("A%d: %d spills, reference %d", a, len(gotSpills[a]), len(wantSpills))
						}
						for i := range wantSpills {
							if !bytes.Equal(gotSpills[a][i], wantSpills[i]) {
								t.Errorf("A%d spill %d: %d bytes differ from the reference's %d", a, i, len(gotSpills[a][i]), len(wantSpills[i]))
							}
						}
						if !bytes.Equal(gotStream[a], wantStream) {
							t.Errorf("A%d: NextGroup stream (%d bytes) differs from the reference's (%d bytes)", a, len(gotStream[a]), len(wantStream))
						}
					}
					switch {
					case spills.name == "no spill" && spilled != 0,
						spills.name == "one spill" && spilled == 0,
						spills.name == "many spills" && spilled < 4:
						t.Errorf("%d spills over %d A tasks does not exercise %q", spilled, cfg.NumA, spills.name)
					}
					checkRunsReturned(t, runs)
				})
			}
		}
	}
}

// TestAModelInputsPinned: the counters the performance model reads off
// an A task, for 0, 1 and several spills, with and without a combiner,
// against values recorded from the DecodeAllInto + kvio.Sort path the
// sorted-run buffer replaced. With one O rank they are a function of
// the pair stream alone, and virtual_s is a function of them.
func TestAModelInputsPinned(t *testing.T) {
	defer leakcheck.Check(t)()
	sum := func(key []byte, vals [][]byte) [][]byte {
		total := 0
		for _, v := range vals {
			n, _ := strconv.Atoi(string(v))
			total += n
		}
		return [][]byte{[]byte(strconv.Itoa(total))}
	}
	// Per A task: SpillCount, SpillBytes, MemoryCacheBytes, SortedBytes,
	// MergeRuns, ShuffleInBytes, ShuffleInPairs, RecvRounds.
	cases := []struct {
		name     string
		n        int
		memory   int64
		combine  bool
		blocking bool
		want     [][8]int64
	}{
		{"0 spills", 2000, 1 << 20, false, false, [][8]int64{
			{0, 0, 9391, 9391, 1, 9391, 994, 19},
			{0, 0, 9499, 9499, 1, 9499, 1006, 19},
		}},
		{"0 spills, blocking", 2000, 1 << 20, false, true, [][8]int64{
			{0, 0, 9391, 9391, 1, 9391, 994, 19},
			{0, 0, 9499, 9499, 1, 9499, 1006, 19},
		}},
		{"1 spill", 2000, 20 << 10, false, false, [][8]int64{
			{1, 8261, 8261, 9391, 2, 9391, 994, 19},
			{1, 8269, 8269, 9499, 2, 9499, 1006, 19},
		}},
		{"several spills", 2000, 6 << 10, false, false, [][8]int64{
			{3, 7741, 2600, 9391, 4, 9391, 994, 19},
			{3, 7749, 2600, 9499, 4, 9499, 1006, 19},
		}},
		{"several spills, combiner", 6000, 16 << 10, true, false, [][8]int64{
			{4, 26981, 6760, 29291, 5, 29291, 2984, 57},
			{4, 26989, 6760, 29599, 5, 29599, 3016, 58},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			runs := kvio.RunsOutstanding()
			cfg := Config{NumO: 1, NumA: 2, NonBlocking: !c.blocking, SendBufferBytes: 512,
				TaskMemoryBytes: c.memory}
			if c.combine {
				cfg.Combiner = sum
			}
			job, err := NewJob(cfg)
			if err != nil {
				t.Fatal(err)
			}
			err = job.Run(func(o *OContext) error {
				for i := 0; i < c.n; i++ {
					if err := o.Send([]byte(fmt.Sprintf("k%03d", (i*7)%211)), []byte(strconv.Itoa(i))); err != nil {
						return err
					}
				}
				return nil
			}, drainGroups)
			if err != nil {
				t.Fatal(err)
			}
			var got [][8]int64
			for _, m := range job.AMetrics() {
				got = append(got, [8]int64{m.SpillCount, m.SpillBytes, m.MemoryCacheBytes, m.SortedBytes,
					m.MergeRuns, m.ShuffleInBytes, m.ShuffleInPairs, m.RecvRounds})
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("SpillCount, SpillBytes, MemoryCacheBytes, SortedBytes, MergeRuns, ShuffleInBytes, ShuffleInPairs, RecvRounds =\n%v, recorded\n%v", got, c.want)
			}
			checkRunsReturned(t, runs)
		})
	}
}

// TestAHostileBlockFailsTask: a data message whose framing is damaged
// fails the A task with the error text the decoder has always given,
// after the task had already cached (and spilled) good blocks, and
// returns every sorted run to the pool.
func TestAHostileBlockFailsTask(t *testing.T) {
	defer leakcheck.Check(t)()
	cases := []struct {
		name    string
		payload []byte
		want    string
	}{
		{"unterminated length", []byte{0x80}, "a task 0 receive: kvio: bad length at 0"},
		{"length past 2^64", bytes.Repeat([]byte{0xFF}, 11), "a task 0 receive: kvio: bad length at 0"},
		{"truncated key", []byte{0x05, 'a', 'b'}, "a task 0 receive: kvio: truncated payload at 1"},
		{"truncated second pair", []byte{0x01, 'k', 0x01, 'v', 0x01, 'k', 0x7F}, "a task 0 receive: kvio: truncated payload at 7"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			job, err := NewJob(Config{NumO: 1, NumA: 1, NonBlocking: true, SendBufferBytes: 256,
				TaskMemoryBytes: 1 << 10})
			if err != nil {
				t.Fatal(err)
			}
			runs := kvio.RunsOutstanding()
			err = job.Run(func(o *OContext) error {
				for i := 0; i < 200; i++ {
					if err := o.Send([]byte(fmt.Sprintf("key-%03d", i)), []byte("value")); err != nil {
						return err
					}
				}
				return o.job.world.Send(o.rank, o.job.commA.WorldRank(0), tagData, c.payload)
			}, drainGroups)
			if err == nil || err.Error() != c.want {
				t.Errorf("job ended with %v, want %s", err, c.want)
			}
			checkRunsReturned(t, runs)
		})
	}
}

// TestASpillDirEmptyAfterFailedJob: whichever side fails, and whether
// the A tasks had spilled or not, every sorted run (the A tasks'
// caches and spills, the combiner's) is back in the pool.
func TestASpillDirEmptyAfterFailedJob(t *testing.T) {
	defer leakcheck.Check(t)()
	boom := errors.New("boom")
	send := func(o *OContext, n int) error {
		for i := 0; i < n; i++ {
			if err := o.Send([]byte(fmt.Sprintf("key-%03d", i%97)), []byte("value")); err != nil {
				return err
			}
		}
		return nil
	}
	failAfterSpills := func(o *OContext) error {
		if err := send(o, 400); err != nil || o.Rank() != 1 {
			return err
		}
		return boom
	}
	cases := []struct {
		name    string
		memory  int64
		combine Combiner
		o       OBody
		a       ABody
	}{
		{"O fails after the A tasks spilled", 1 << 10, nil, failAfterSpills, drainGroups},
		{"O fails after spills, combiner on", 1 << 10,
			func(key []byte, values [][]byte) [][]byte { return values[:1] },
			failAfterSpills, drainGroups},
		{"A body fails mid-merge", 1 << 10, nil,
			func(o *OContext) error { return send(o, 400) },
			func(a *AContext) error {
				if _, _, err := a.NextGroup(); err != nil {
					return err
				}
				return boom
			}},
		{"A body fails without spills", 1 << 20, nil,
			func(o *OContext) error { return send(o, 400) },
			func(*AContext) error { return boom }},
		{"partitioner misroutes mid-task", 1 << 10, nil,
			func(o *OContext) error {
				if err := send(o, 300); err != nil {
					return err
				}
				return o.Send([]byte("misrouted"), nil)
			}, drainGroups},
	}
	for _, c := range cases {
		for _, nonBlocking := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/non-blocking=%v", c.name, nonBlocking), func(t *testing.T) {
				job, err := NewJob(Config{NumO: 3, NumA: 2, NonBlocking: nonBlocking, SendBufferBytes: 256,
					TaskMemoryBytes: c.memory, Combiner: c.combine,
					Partitioner: func(key []byte, n int) int {
						if string(key) == "misrouted" {
							return n
						}
						return HashPartitioner(key, n)
					}})
				if err != nil {
					t.Fatal(err)
				}
				runs := kvio.RunsOutstanding()
				if err := job.Run(c.o, c.a); !errors.Is(err, boom) && c.name != "partitioner misroutes mid-task" {
					t.Errorf("job ended with %v, want %v", err, boom)
				} else if err == nil {
					t.Error("job succeeded")
				}
				checkRunsReturned(t, runs)
			})
		}
	}
}

// checkRunsReturned fails the test unless every sorted run taken since
// kvio.RunsOutstanding read before is back in the pool.
func checkRunsReturned(t *testing.T, before int64) {
	t.Helper()
	if n := kvio.RunsOutstanding() - before; n != 0 {
		t.Errorf("%d sorted runs not returned to the pool", n)
	}
}
