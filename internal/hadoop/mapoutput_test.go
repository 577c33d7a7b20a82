package hadoop

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"hivempi/internal/kvio"
	"hivempi/internal/trace"
)

// refPair is one collected pair of the reference map-output path.
type refPair struct {
	part int
	kv   kvio.KV
}

// refRun is one sorted run: wire bytes plus the partition index.
type refRun struct {
	data    []byte
	offsets []int64
}

// refMapOutput is the map-output path as it stood before the collect
// arena: pairs held as a slice of structs, sort.SliceStable on
// (partition, key) at every spill, the combiner over each key's values
// in emission order, and a final (key, value, run) merge of the runs,
// partition by partition — also when there is only one run. The oracle
// test holds the production path to its bytes.
func refMapOutput(pairs []refPair, numReduces, sortBuffer int, combine Combiner) (spills []refRun, out refRun) {
	var buf []refPair
	bufBytes := 0
	spill := func() {
		if len(buf) == 0 {
			return
		}
		sort.SliceStable(buf, func(i, j int) bool {
			if buf[i].part != buf[j].part {
				return buf[i].part < buf[j].part
			}
			return bytes.Compare(buf[i].kv.Key, buf[j].kv.Key) < 0
		})
		run := refRun{offsets: make([]int64, numReduces+1)}
		i := 0
		for p := 0; p < numReduces; p++ {
			run.offsets[p] = int64(len(run.data))
			for i < len(buf) && buf[i].part == p {
				j := i + 1
				for combine != nil && j < len(buf) && buf[j].part == p && bytes.Equal(buf[j].kv.Key, buf[i].kv.Key) {
					j++
				}
				if combine == nil {
					run.data = kvio.AppendKV(run.data, buf[i].kv.Key, buf[i].kv.Value)
				} else {
					var vals [][]byte
					for _, rp := range buf[i:j] {
						vals = append(vals, rp.kv.Value)
					}
					for _, v := range combine(buf[i].kv.Key, vals) {
						run.data = kvio.AppendKV(run.data, buf[i].kv.Key, v)
					}
				}
				i = j
			}
		}
		run.offsets[numReduces] = int64(len(run.data))
		spills = append(spills, run)
		buf, bufBytes = nil, 0
	}
	for _, rp := range pairs {
		buf = append(buf, rp)
		bufBytes += rp.kv.WireSize()
		if bufBytes >= sortBuffer {
			spill()
		}
	}
	spill()

	out.offsets = make([]int64, numReduces+1)
	for p := 0; p < numReduces; p++ {
		out.offsets[p] = int64(len(out.data))
		var heads [][]kvio.KV
		for _, sp := range spills {
			kvs, err := kvio.DecodeAll(sp.data[sp.offsets[p]:sp.offsets[p+1]])
			if err != nil {
				panic(err)
			}
			heads = append(heads, kvs)
		}
		for {
			best := -1
			for r, h := range heads {
				if len(h) == 0 {
					continue
				}
				if best >= 0 {
					c := bytes.Compare(h[0].Key, heads[best][0].Key)
					if c == 0 {
						c = bytes.Compare(h[0].Value, heads[best][0].Value)
					}
					if c >= 0 {
						continue
					}
				}
				best = r
			}
			if best < 0 {
				break
			}
			out.data = kvio.AppendKV(out.data, heads[best][0].Key, heads[best][0].Value)
			heads[best] = heads[best][1:]
		}
	}
	out.offsets[numReduces] = int64(len(out.data))
	return spills, out
}

func readRun(t *testing.T, mo *mapOutput) refRun {
	t.Helper()
	run := refRun{offsets: mo.offsets}
	if mo.file != nil {
		var err error
		if run.data, err = os.ReadFile(mo.file.Name()); err != nil {
			t.Fatal(err)
		}
	}
	return run
}

func checkRun(t *testing.T, what string, got, want refRun) {
	t.Helper()
	if !reflect.DeepEqual(got.offsets, want.offsets) {
		t.Errorf("%s: partition offsets %v, reference %v", what, got.offsets, want.offsets)
	}
	if !bytes.Equal(got.data, want.data) {
		t.Errorf("%s: %d bytes differ from the reference's %d", what, len(got.data), len(want.data))
	}
}

func checkDirEmpty(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("left behind in SpillDir: %s", e.Name())
	}
}

// orderedConcat is a combiner whose output depends on the order of its
// values, the way a float sum does: it keeps the first value whole and
// folds the rest into a running digest.
func orderedConcat(key []byte, values [][]byte) [][]byte {
	h := uint64(len(values))
	for _, v := range values[1:] {
		for _, b := range v {
			h = h*1099511628211 + uint64(b)
		}
		h = h*31 + 7
	}
	first := values[0]
	if len(first) > 16 {
		first = first[:16]
	}
	return [][]byte{append(strconv.AppendUint(nil, h, 36), first...)}
}

// TestMapOutputMatchesReference is the order oracle: every spill run
// and the final file.out must equal, byte for byte and offset for
// offset, what refMapOutput produces from the same pair stream.
func TestMapOutputMatchesReference(t *testing.T) {
	byFirstByte := func(key []byte, n int) int {
		if len(key) == 0 {
			return 0
		}
		return int(key[0]) % n
	}
	lastOnly := func(key []byte, n int) int { return n - 1 }

	type stream struct {
		name        string
		numReduces  int
		sortBuffer  int
		partitioner Partitioner
		pairs       func(rng *rand.Rand) []kvio.KV
	}
	randomPairs := func(n, keySpace, maxVal int) func(*rand.Rand) []kvio.KV {
		return func(rng *rand.Rand) []kvio.KV {
			kvs := make([]kvio.KV, n)
			for i := range kvs {
				// Keys over a two-letter alphabet of random length:
				// empty keys, prefixes of each other, many repeats.
				key := make([]byte, rng.Intn(keySpace))
				for j := range key {
					key[j] = "ab"[rng.Intn(2)]
				}
				val := make([]byte, rng.Intn(maxVal))
				rng.Read(val)
				kvs[i] = kvio.KV{Key: key, Value: val}
			}
			return kvs
		}
	}
	streams := []stream{
		{"no pairs", 3, 256, byFirstByte, func(*rand.Rand) []kvio.KV { return nil }},
		{"one pair", 3, 256, byFirstByte, randomPairs(1, 4, 8)},
		{"one spill", 4, 1 << 20, byFirstByte, randomPairs(500, 6, 20)},
		{"spill on the last pair", 2, 10, byFirstByte, func(*rand.Rand) []kvio.KV {
			return []kvio.KV{{Key: []byte("abc"), Value: []byte("12345")}}
		}},
		{"many spills", 4, 512, byFirstByte, randomPairs(2000, 6, 20)},
		{"duplicate pairs", 3, 300, byFirstByte, func(rng *rand.Rand) []kvio.KV {
			kvs := make([]kvio.KV, 1500)
			for i := range kvs {
				kvs[i] = kvio.KV{Key: []byte{"abc"[rng.Intn(3)]}, Value: []byte{"xy"[rng.Intn(2)]}}
			}
			return kvs
		}},
		{"empty keys and values", 2, 64, byFirstByte, func(rng *rand.Rand) []kvio.KV {
			kvs := make([]kvio.KV, 400)
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
		{"1 MiB value against a 1 KiB buffer", 3, 1 << 10, byFirstByte, func(rng *rand.Rand) []kvio.KV {
			kvs := randomPairs(300, 5, 30)(rng)
			big := make([]byte, 1<<20)
			rng.Read(big)
			kvs[137].Value = big
			return kvs
		}},
		{"every partition empty but one", 5, 400, lastOnly, randomPairs(800, 5, 12)},
	}
	for _, st := range streams {
		for _, combine := range []Combiner{nil, orderedConcat} {
			name := st.name
			if combine != nil {
				name += ", combiner"
			}
			t.Run(name, func(t *testing.T) {
				kvs := st.pairs(rand.New(rand.NewSource(1)))
				dir := t.TempDir()
				job, err := NewJob(Config{NumMaps: 1, NumReduces: st.numReduces, SortBufferBytes: st.sortBuffer,
					Partitioner: st.partitioner, Combiner: combine, SpillDir: dir})
				if err != nil {
					t.Fatal(err)
				}
				defer job.cleanup()
				var ref []refPair
				m := job.newMapContext(0)
				defer m.abandon()
				scratch := make([]byte, 0, 64)
				for _, kv := range kvs {
					ref = append(ref, refPair{part: st.partitioner(kv.Key, st.numReduces), kv: kv})
					// Emit must copy: hand it a buffer that is
					// overwritten straight after.
					scratch = append(scratch[:0], kv.Key...)
					if err := m.Emit(scratch, kv.Value); err != nil {
						t.Fatal(err)
					}
					for i := range scratch {
						scratch[i] = 0xEE
					}
				}
				wantSpills, wantOut := refMapOutput(ref, st.numReduces, st.sortBuffer, combine)

				// close starts with this same call; making it here lets
				// the runs be read before the merge deletes them.
				if err := m.sortAndSpill(); err != nil {
					t.Fatal(err)
				}
				if len(m.spills) != len(wantSpills) {
					t.Fatalf("%d spills, reference %d", len(m.spills), len(wantSpills))
				}
				for i, sp := range m.spills {
					checkRun(t, fmt.Sprintf("spill %d", i), readRun(t, sp), wantSpills[i])
				}
				mo, err := m.close()
				if err != nil {
					t.Fatal(err)
				}
				job.mapOutputs[0] = mo
				checkRun(t, "file.out", readRun(t, mo), wantOut)
				if got := job.mapMetrics[0].ShuffleOutBytes; got != int64(len(wantOut.data)) {
					t.Errorf("ShuffleOutBytes %d, reference %d", got, len(wantOut.data))
				}
				files, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				if want := min(len(wantSpills), 1); len(files) != want {
					t.Errorf("%d files in SpillDir after close, want %d", len(files), want)
				}
				job.cleanup()
				job.mapOutputs[0] = nil
				checkDirEmpty(t, dir)
			})
		}
	}
}

func sumCombiner(key []byte, values [][]byte) [][]byte {
	total := 0
	for _, v := range values {
		n, _ := strconv.Atoi(string(v))
		total += n
	}
	return [][]byte{[]byte(strconv.Itoa(total))}
}

func drainReduce(r *ReduceContext) error {
	for {
		if _, _, err := r.NextGroup(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
	}
}

// TestModelInputsPinned: the counters and send events the performance
// model reads off a map task, for 0, 1, 2 and 5 spills (and a buffer
// that fills exactly on the last pair), against values recorded from
// the []mapPair / sort.SliceStable / always-merge path this one
// replaced. virtual_s is a pure function of these.
func TestModelInputsPinned(t *testing.T) {
	ev := func(bytes int64, progress ...float64) []trace.SendEvent {
		var evs []trace.SendEvent
		for _, p := range progress {
			evs = append(evs, trace.SendEvent{Progress: p, Bytes: bytes})
		}
		return evs
	}
	five := []float64{0.26153846153846155, 0.5076923076923077, 0.7538461538461538, 0.9769230769230769, 1}
	cases := []struct {
		n                             int
		combine                       bool
		spillCount, spillBytes        int64
		mergeRuns, outBytes, outPairs int64
		combIn, combOut               int64
		partBytes                     []int64
		events                        []trace.SendEvent
	}{
		{0, false, 0, 0, 0, 0, 0, 0, 0, []int64{0, 0, 0}, nil},
		{0, true, 0, 0, 0, 0, 0, 0, 0, []int64{0, 0, 0}, nil},
		{10, false, 1, 70, 1, 70, 10, 0, 0, []int64{21, 14, 35}, ev(70, 1)},
		{10, true, 1, 70, 1, 70, 10, 10, 10, []int64{21, 14, 35}, ev(70, 1)},
		{34, false, 1, 262, 1, 262, 34, 0, 0, []int64{101, 46, 115}, ev(262, 1)},
		{34, true, 1, 104, 1, 104, 34, 34, 13, []int64{101, 46, 115}, ev(104, 1)},
		{40, false, 2, 310, 2, 310, 40, 0, 0, []int64{117, 54, 139}, ev(155, 0.85, 1)},
		{40, true, 2, 152, 2, 152, 40, 40, 19, []int64{117, 54, 139}, ev(76, 0.85, 1)},
		{130, false, 5, 1060, 5, 1060, 130, 0, 0, []int64{409, 162, 489}, ev(212, five...)},
		{130, true, 5, 478, 5, 478, 130, 130, 55, []int64{409, 162, 489}, ev(95, five...)},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%d pairs, combiner %v", c.n, c.combine), func(t *testing.T) {
			cfg := Config{NumMaps: 1, NumReduces: 3, SortBufferBytes: 256, SpillDir: t.TempDir()}
			if c.combine {
				cfg.Combiner = sumCombiner
			}
			job, err := NewJob(cfg)
			if err != nil {
				t.Fatal(err)
			}
			err = job.Run(func(m *MapContext) error {
				for i := 0; i < c.n; i++ {
					if err := m.Emit([]byte(fmt.Sprintf("k%03d", (i*7)%13)), []byte(strconv.Itoa(i))); err != nil {
						return err
					}
				}
				return nil
			}, drainReduce)
			if err != nil {
				t.Fatal(err)
			}
			m := job.MapMetrics()[0]
			got := []int64{m.SpillCount, m.SpillBytes, m.MergeRuns, m.ShuffleOutBytes, m.ShuffleOutPairs, m.CombineInPairs, m.CombineOutPairs}
			want := []int64{c.spillCount, c.spillBytes, c.mergeRuns, c.outBytes, c.outPairs, c.combIn, c.combOut}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("SpillCount, SpillBytes, MergeRuns, ShuffleOutBytes, ShuffleOutPairs, CombineIn, CombineOut =\n%v, recorded\n%v", got, want)
			}
			if !reflect.DeepEqual(m.PartitionBytes, c.partBytes) {
				t.Errorf("PartitionBytes %v, recorded %v", m.PartitionBytes, c.partBytes)
			}
			if !reflect.DeepEqual(m.SendEvents, c.events) {
				t.Errorf("SendEvents %v, recorded %v", m.SendEvents, c.events)
			}
			var in int64
			for _, r := range job.ReduceMetrics() {
				in += r.ShuffleInBytes
			}
			if in != c.outBytes {
				t.Errorf("reducers copied %d bytes, maps published %d", in, c.outBytes)
			}
		})
	}
}

// TestLoneSpillIsPromoted: a task that ends with one spill publishes
// that file as its output — one file on disk while the reducers copy,
// holding exactly the pairs the merge of that one run would have
// written — and Run leaves SpillDir empty.
func TestLoneSpillIsPromoted(t *testing.T) {
	dir := t.TempDir()
	job, err := NewJob(Config{NumMaps: 1, NumReduces: 1, SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var ref []refPair
	for i := 0; i < 400; i++ {
		ref = append(ref, refPair{kv: kvio.KV{Key: []byte{byte(i * 7 % 31)}, Value: []byte(strconv.Itoa(i))}})
	}
	_, want := refMapOutput(ref, 1, DefaultSortBufferBytes, nil)
	var got []byte
	err = job.Run(func(m *MapContext) error {
		for _, rp := range ref {
			if err := m.Emit(rp.kv.Key, rp.kv.Value); err != nil {
				return err
			}
		}
		return nil
	}, func(r *ReduceContext) error {
		// Every map has published by the time a reducer's merge starts.
		files, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		if len(files) != 1 {
			return fmt.Errorf("%d files in SpillDir during the reduce, want the promoted spill alone", len(files))
		}
		for {
			key, vals, err := r.NextGroup()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			for _, v := range vals {
				got = kvio.AppendKV(got, key, v)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.data) {
		t.Errorf("reducer read %d bytes that differ from the merged reference's %d", len(got), len(want.data))
	}
	if m := job.MapMetrics()[0]; m.SpillCount != 1 || m.MergeRuns != 1 || m.ShuffleOutBytes != m.SpillBytes {
		t.Errorf("SpillCount %d MergeRuns %d ShuffleOutBytes %d SpillBytes %d", m.SpillCount, m.MergeRuns, m.ShuffleOutBytes, m.SpillBytes)
	}
	checkDirEmpty(t, dir)
}

// TestSpillDirEmptyAfterFailedJob: whichever side fails, and whether
// the failing map had spilled or not, no run survives the job.
func TestSpillDirEmptyAfterFailedJob(t *testing.T) {
	boom := errors.New("boom")
	emit := func(m *MapContext, n int) error {
		for i := 0; i < n; i++ {
			if err := m.Emit([]byte{byte(i)}, []byte("value")); err != nil {
				return err
			}
		}
		return nil
	}
	cases := []struct {
		name   string
		mapper MapBody
		reduce ReduceBody
	}{
		{"map fails after spilling", func(m *MapContext) error {
			if err := emit(m, 200); err != nil || m.TaskID() != 1 {
				return err
			}
			return boom
		}, drainReduce},
		{"reduce fails", func(m *MapContext) error { return emit(m, 200) },
			func(*ReduceContext) error { return boom }},
		{"partitioner misroutes mid-task", func(m *MapContext) error {
			if err := emit(m, 100); err != nil {
				return err
			}
			return m.Emit([]byte("misrouted"), nil)
		}, drainReduce},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			job, err := NewJob(Config{NumMaps: 3, NumReduces: 2, SortBufferBytes: 256, SpillDir: dir,
				Partitioner: func(key []byte, n int) int {
					if string(key) == "misrouted" {
						return n
					}
					return int(key[0]) % n
				}})
			if err != nil {
				t.Fatal(err)
			}
			if err := job.Run(c.mapper, c.reduce); err == nil {
				t.Error("job succeeded")
			}
			checkDirEmpty(t, dir)
		})
	}
}

// errAfter yields n pairs and then err.
type errAfter struct {
	n   int
	err error
}

func (s *errAfter) Next() (kvio.KV, error) {
	if s.n == 0 {
		return kvio.KV{}, s.err
	}
	s.n--
	return kvio.KV{Key: []byte("k"), Value: []byte("v")}, nil
}

// TestDrainFailsOnSourceError: the loop that writes a merged stream to
// file.out used to stop at any error, so a merge failing halfway
// published the pairs before the failure as the task's whole output.
func TestDrainFailsOnSourceError(t *testing.T) {
	boom := errors.New("segment went away")
	b := kvio.GetRun()
	defer b.Release()
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b.Begin(f)
	if err := drain(b, &errAfter{n: 3, err: io.EOF}); err != nil {
		t.Errorf("a stream ending in io.EOF: %v", err)
	}
	err = drain(b, &errAfter{n: 3, err: boom})
	if !errors.Is(err, boom) {
		t.Errorf("a stream failing after 3 pairs: drain returned %v", err)
	}
}

// TestDamagedSpillFailsOrRetriesNeverTruncates damages a map task's
// spill runs on disk just before its final merge reads them back. The
// attempt must fail; with attempts left the retry must publish the
// complete output, without them the job must fail — in no case may the
// reducers be handed the pairs that happened to precede the damage.
func TestDamagedSpillFailsOrRetriesNeverTruncates(t *testing.T) {
	damages := map[string]func(path string) error{
		"truncated": func(path string) error { return os.Truncate(path, 40) },
		"bad framing": func(path string) error {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for i := range data {
				data[i] = 0x7F // every length claims 127 bytes
			}
			return os.WriteFile(path, data, 0o600)
		},
	}
	for name, damage := range damages {
		for _, attempts := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s, %d attempts", name, attempts), func(t *testing.T) {
				dir := t.TempDir()
				job, err := NewJob(Config{NumMaps: 2, NumReduces: 1, SortBufferBytes: 512, MaxAttempts: attempts, SpillDir: dir})
				if err != nil {
					t.Fatal(err)
				}
				const perMap = 300
				damaged := false
				pairs := 0
				err = job.Run(func(m *MapContext) error {
					for i := 0; i < perMap; i++ {
						if err := m.Emit([]byte(fmt.Sprintf("key-%03d", i)), []byte{byte(m.TaskID())}); err != nil {
							return err
						}
					}
					if m.TaskID() != 0 || damaged {
						return nil
					}
					damaged = true
					for _, sp := range m.spills {
						if err := damage(sp.file.Name()); err != nil {
							return err
						}
					}
					return nil
				}, func(r *ReduceContext) error {
					for {
						_, vals, err := r.NextGroup()
						if err == io.EOF {
							return nil
						}
						if err != nil {
							return err
						}
						pairs += len(vals)
					}
				})
				if attempts == 1 {
					if err == nil {
						t.Errorf("job succeeded on a damaged spill; reducers saw %d pairs", pairs)
					}
				} else {
					if err != nil {
						t.Fatalf("retry did not recover: %v", err)
					}
					if pairs != 2*perMap {
						t.Errorf("reducers saw %d pairs, want %d", pairs, 2*perMap)
					}
					if got := job.MapMetrics()[0].Attempts; got != 2 {
						t.Errorf("map 0 took %d attempts, want 2", got)
					}
				}
				checkDirEmpty(t, dir)
			})
		}
	}
}

// TestMapOutputErrorsKeepTheirText: errors callers may have matched on
// since before the collect arena, word for word.
func TestMapOutputErrorsKeepTheirText(t *testing.T) {
	run := func(cfg Config, body MapBody) error {
		cfg.SpillDir = t.TempDir()
		job, err := NewJob(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return job.Run(body, drainReduce)
	}
	emitOne := func(m *MapContext) error { return m.Emit([]byte("k"), []byte("v")) }

	err := run(Config{NumMaps: 1, NumReduces: 2, Partitioner: func([]byte, int) int { return 2 }}, emitOne)
	if want := "map 0 attempt 1: hadoop: partitioner returned 2 for 2 reduces"; err == nil || err.Error() != want {
		t.Errorf("bad partitioner result: %v, want %s", err, want)
	}
	err = run(Config{NumMaps: 1, NumReduces: 0}, emitOne)
	if want := "map 0 attempt 1: hadoop: Emit on a map-only job"; err == nil || err.Error() != want {
		t.Errorf("Emit on a map-only job: %v, want %s", err, want)
	}

	job, err := NewJob(Config{NumMaps: 1, NumReduces: 1, SpillDir: t.TempDir() + "/missing"})
	if err != nil {
		t.Fatal(err)
	}
	err = job.Run(emitOne, drainReduce)
	if err == nil || !bytes.HasPrefix([]byte(err.Error()), []byte("map 0 attempt 1 close: hadoop: create spill: ")) {
		t.Errorf("spill create failure: %v", err)
	}
}
