package datampi

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hivempi/internal/testutil/leakcheck"
)

// runWordCount runs a word-count shaped job and returns the aggregated
// counts observed at the A side.
func runWordCount(t *testing.T, cfg Config, words []string) map[string]int {
	t.Helper()
	job, err := NewJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	counts := map[string]int{}

	per := (len(words) + cfg.NumO - 1) / cfg.NumO
	err = job.Run(
		func(o *OContext) error {
			lo := o.Rank() * per
			hi := lo + per
			if hi > len(words) {
				hi = len(words)
			}
			if lo > len(words) {
				lo = len(words)
			}
			for _, w := range words[lo:hi] {
				if err := o.Send([]byte(w), []byte{1}); err != nil {
					return err
				}
			}
			return nil
		},
		func(a *AContext) error {
			for {
				key, vals, err := a.NextGroup()
				if err == io.EOF {
					return nil
				}
				if err != nil {
					return err
				}
				total := 0
				for _, v := range vals {
					total += int(v[0])
				}
				mu.Lock()
				counts[string(key)] += total
				mu.Unlock()
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	return counts
}

func wordCorpus(n int) ([]string, map[string]int) {
	words := make([]string, 0, n)
	want := map[string]int{}
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	for i := 0; i < n; i++ {
		w := vocab[(i*i+3*i)%len(vocab)]
		words = append(words, w)
		want[w]++
	}
	return words, want
}

func checkCounts(t *testing.T, got, want map[string]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d distinct words, want %d", len(got), len(want))
	}
	for w, c := range want {
		if got[w] != c {
			t.Errorf("count[%s] = %d, want %d", w, got[w], c)
		}
	}
}

func TestWordCountNonBlocking(t *testing.T) {
	defer leakcheck.Check(t)()
	words, want := wordCorpus(5000)
	got := runWordCount(t, Config{NumO: 4, NumA: 3, NonBlocking: true}, words)
	checkCounts(t, got, want)
}

func TestWordCountBlocking(t *testing.T) {
	defer leakcheck.Check(t)()
	words, want := wordCorpus(5000)
	got := runWordCount(t, Config{NumO: 4, NumA: 3, NonBlocking: false}, words)
	checkCounts(t, got, want)
}

func TestWordCountTinyBuffersForceManyFlushes(t *testing.T) {
	defer leakcheck.Check(t)()
	words, want := wordCorpus(2000)
	cfg := Config{NumO: 3, NumA: 2, NonBlocking: true, SendBufferBytes: 16, SendQueueSize: 2}
	got := runWordCount(t, cfg, words)
	checkCounts(t, got, want)
}

func TestSpillPathProducesSameResult(t *testing.T) {
	defer leakcheck.Check(t)()
	words, want := wordCorpus(4000)
	cfg := Config{
		NumO: 2, NumA: 2, NonBlocking: true,
		// A 1 KB task memory at 40% forces many spills.
		TaskMemoryBytes: 1 << 10,
		MemUsedPercent:  0.4,
	}
	job, err := NewJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	counts := map[string]int{}
	per := (len(words) + cfg.NumO - 1) / cfg.NumO
	err = job.Run(
		func(o *OContext) error {
			lo, hi := o.Rank()*per, (o.Rank()+1)*per
			if hi > len(words) {
				hi = len(words)
			}
			for _, w := range words[lo:hi] {
				if err := o.Send([]byte(w), []byte{1}); err != nil {
					return err
				}
			}
			return nil
		},
		func(a *AContext) error {
			for {
				key, vals, err := a.NextGroup()
				if err == io.EOF {
					return nil
				}
				if err != nil {
					return err
				}
				mu.Lock()
				counts[string(key)] += len(vals)
				mu.Unlock()
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, counts, want)
	var spills int64
	for _, m := range job.AMetrics() {
		spills += m.SpillCount
	}
	if spills == 0 {
		t.Error("expected spills with a 1 KB task memory")
	}
}

func TestGroupsArriveInKeyOrder(t *testing.T) {
	defer leakcheck.Check(t)()
	cfg := Config{NumO: 3, NumA: 1, NonBlocking: true}
	job, err := NewJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var seen []string
	err = job.Run(
		func(o *OContext) error {
			for i := 0; i < 50; i++ {
				k := fmt.Sprintf("k%03d", (i*7+o.Rank()*13)%100)
				if err := o.Send([]byte(k), []byte("v")); err != nil {
					return err
				}
			}
			return nil
		},
		func(a *AContext) error {
			for {
				key, _, err := a.NextGroup()
				if err == io.EOF {
					return nil
				}
				if err != nil {
					return err
				}
				mu.Lock()
				seen = append(seen, string(key))
				mu.Unlock()
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if !sort.StringsAreSorted(seen) {
		t.Error("groups not in key order")
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] == seen[i-1] {
			t.Errorf("duplicate group %q", seen[i])
		}
	}
}

func TestCombinerReducesTraffic(t *testing.T) {
	defer leakcheck.Check(t)()
	words, want := wordCorpus(3000)
	sum := func(key []byte, values [][]byte) [][]byte {
		total := 0
		for _, v := range values {
			n, _ := strconv.Atoi(string(v))
			total += n
		}
		return [][]byte{[]byte(strconv.Itoa(total))}
	}
	run := func(comb Combiner) (map[string]int, int64) {
		cfg := Config{NumO: 2, NumA: 2, NonBlocking: true, Combiner: comb}
		job, err := NewJob(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		counts := map[string]int{}
		per := (len(words) + 1) / 2
		err = job.Run(
			func(o *OContext) error {
				lo, hi := o.Rank()*per, (o.Rank()+1)*per
				if hi > len(words) {
					hi = len(words)
				}
				for _, w := range words[lo:hi] {
					if err := o.Send([]byte(w), []byte("1")); err != nil {
						return err
					}
				}
				return nil
			},
			func(a *AContext) error {
				for {
					key, vals, err := a.NextGroup()
					if err == io.EOF {
						return nil
					}
					if err != nil {
						return err
					}
					total := 0
					for _, v := range vals {
						n, _ := strconv.Atoi(string(v))
						total += n
					}
					mu.Lock()
					counts[string(key)] += total
					mu.Unlock()
				}
			})
		if err != nil {
			t.Fatal(err)
		}
		var bytesOut int64
		for _, m := range job.OMetrics() {
			bytesOut += m.ShuffleOutBytes
		}
		return counts, bytesOut
	}
	plain, plainBytes := run(nil)
	combined, combinedBytes := run(sum)
	checkCounts(t, plain, want)
	checkCounts(t, combined, want)
	if combinedBytes >= plainBytes {
		t.Errorf("combiner did not reduce traffic: %d >= %d", combinedBytes, plainBytes)
	}
}

func TestMetricsPopulated(t *testing.T) {
	defer leakcheck.Check(t)()
	words, _ := wordCorpus(1000)
	cfg := Config{NumO: 2, NumA: 2, NonBlocking: true, SendBufferBytes: 64}
	job, err := NewJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	per := (len(words) + 1) / 2
	err = job.Run(
		func(o *OContext) error {
			lo, hi := o.Rank()*per, (o.Rank()+1)*per
			if hi > len(words) {
				hi = len(words)
			}
			for _, w := range words[lo:hi] {
				if err := o.Send([]byte(w), []byte("1")); err != nil {
					return err
				}
			}
			return nil
		},
		func(a *AContext) error {
			for {
				_, _, err := a.NextGroup()
				if err == io.EOF {
					return nil
				}
				if err != nil {
					return err
				}
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	var outBytes, inBytes, outPairs, inPairs int64
	for _, m := range job.OMetrics() {
		outBytes += m.ShuffleOutBytes
		outPairs += m.ShuffleOutPairs
		if len(m.SendEvents) == 0 {
			t.Error("O task has no send events")
		}
		for _, e := range m.SendEvents {
			if e.Progress < 0 || e.Progress > 1 {
				t.Errorf("send event progress %f out of range", e.Progress)
			}
		}
		if m.CollectSizes.Total() == 0 {
			t.Error("collect size histogram empty")
		}
	}
	for _, m := range job.AMetrics() {
		inBytes += m.ShuffleInBytes
		inPairs += m.ShuffleInPairs
	}
	if outBytes != inBytes {
		t.Errorf("shuffle bytes out %d != in %d", outBytes, inBytes)
	}
	if outPairs != int64(len(words)) || inPairs != outPairs {
		t.Errorf("pairs out %d in %d want %d", outPairs, inPairs, len(words))
	}
}

func TestBlockingStyleCountsWaitRounds(t *testing.T) {
	defer leakcheck.Check(t)()
	words, _ := wordCorpus(2000)
	cfg := Config{NumO: 2, NumA: 2, NonBlocking: false, SendBufferBytes: 64}
	job, err := NewJob(cfg)
	if err != nil {
		t.Fatal(err)
	}
	per := (len(words) + 1) / 2
	err = job.Run(
		func(o *OContext) error {
			lo, hi := o.Rank()*per, (o.Rank()+1)*per
			if hi > len(words) {
				hi = len(words)
			}
			for _, w := range words[lo:hi] {
				if err := o.Send([]byte(w), []byte("1")); err != nil {
					return err
				}
			}
			return nil
		},
		func(a *AContext) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	var rounds int64
	for _, m := range job.OMetrics() {
		rounds += m.WaitRounds
	}
	if rounds == 0 {
		t.Error("blocking style recorded no wait rounds")
	}
}

func TestConfigValidation(t *testing.T) {
	defer leakcheck.Check(t)()
	if _, err := NewJob(Config{NumO: 0, NumA: 1}); err == nil {
		t.Error("NumO=0 should fail")
	}
	if _, err := NewJob(Config{NumO: 1, NumA: 0}); err == nil {
		t.Error("NumA=0 should fail")
	}
	if _, err := NewJob(Config{NumO: 1, NumA: 1, Hosts: []string{"only-one"}}); err == nil {
		t.Error("wrong Hosts length should fail")
	}
}

func TestOBodyErrorPropagates(t *testing.T) {
	defer leakcheck.Check(t)()
	job, err := NewJob(Config{NumO: 2, NumA: 1, NonBlocking: true})
	if err != nil {
		t.Fatal(err)
	}
	wantErr := fmt.Errorf("operator exploded")
	err = job.Run(
		func(o *OContext) error {
			if o.Rank() == 1 {
				return wantErr
			}
			return o.Send([]byte("k"), []byte("v"))
		},
		func(a *AContext) error {
			for {
				if _, _, err := a.NextGroup(); err == io.EOF {
					return nil
				} else if err != nil {
					return err
				}
			}
		})
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("operator exploded")) {
		t.Errorf("error not propagated: %v", err)
	}
}

func TestEmptyJob(t *testing.T) {
	defer leakcheck.Check(t)()
	job, err := NewJob(Config{NumO: 2, NumA: 2, NonBlocking: true})
	if err != nil {
		t.Fatal(err)
	}
	groups := 0
	var mu sync.Mutex
	err = job.Run(
		func(o *OContext) error { return nil },
		func(a *AContext) error {
			for {
				_, _, err := a.NextGroup()
				if err == io.EOF {
					return nil
				}
				if err != nil {
					return err
				}
				mu.Lock()
				groups++
				mu.Unlock()
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if groups != 0 {
		t.Errorf("empty job produced %d groups", groups)
	}
}

func TestHashPartitionerRangeAndBalance(t *testing.T) {
	defer leakcheck.Check(t)()
	const numA = 7
	counts := make([]int, numA)
	for i := 0; i < 10000; i++ {
		p := HashPartitioner([]byte(strconv.Itoa(i)), numA)
		if p < 0 || p >= numA {
			t.Fatalf("partition %d out of range", p)
		}
		counts[p]++
	}
	for i, c := range counts {
		if c < 1000 || c > 2000 {
			t.Errorf("partition %d has %d of 10000 keys (poor balance)", i, c)
		}
	}
}

func TestSendAfterFinalizeRejected(t *testing.T) {
	defer leakcheck.Check(t)()
	job, err := NewJob(Config{NumO: 1, NumA: 1, NonBlocking: true})
	if err != nil {
		t.Fatal(err)
	}
	var leaked *OContext
	err = job.Run(
		func(o *OContext) error {
			leaked = o
			return nil
		},
		func(a *AContext) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := leaked.Send([]byte("k"), []byte("v")); err == nil {
		t.Error("Send after finalize should fail")
	}
}

func TestBadPartitionerSurfacesError(t *testing.T) {
	defer leakcheck.Check(t)()
	job, err := NewJob(Config{
		NumO: 1, NumA: 2, NonBlocking: true,
		Partitioner: func(key []byte, numA int) int { return numA + 5 },
	})
	if err != nil {
		t.Fatal(err)
	}
	err = job.Run(
		func(o *OContext) error { return o.Send([]byte("k"), []byte("v")) },
		func(a *AContext) error {
			for {
				if _, _, err := a.NextGroup(); err != nil {
					return nil
				}
			}
		})
	if err == nil || !strings.Contains(err.Error(), "partitioner") {
		t.Errorf("bad partitioner not surfaced: %v", err)
	}
}

func TestContextAccessors(t *testing.T) {
	defer leakcheck.Check(t)()
	job, err := NewJob(Config{NumO: 3, NumA: 2, NonBlocking: true,
		Hosts: []string{"h0", "h1", "h2", "h3", "h4"}})
	if err != nil {
		t.Fatal(err)
	}
	err = job.Run(
		func(o *OContext) error {
			if o.Size() != 3 || o.NumA() != 2 {
				t.Errorf("O accessors wrong: size=%d numA=%d", o.Size(), o.NumA())
			}
			if o.Metrics() == nil {
				t.Error("O metrics nil")
			}
			return nil
		},
		func(a *AContext) error {
			if a.Size() != 2 || a.NumO() != 3 {
				t.Errorf("A accessors wrong: size=%d numO=%d", a.Size(), a.NumO())
			}
			if a.Metrics() == nil {
				t.Error("A metrics nil")
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range job.OMetrics() {
		if m.Host != fmt.Sprintf("h%d", i) {
			t.Errorf("O%d host %q", i, m.Host)
		}
	}
	for i, m := range job.AMetrics() {
		if m.Host != fmt.Sprintf("h%d", 3+i) {
			t.Errorf("A%d host %q", i, m.Host)
		}
	}
}
