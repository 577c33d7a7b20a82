package dfs

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"hivempi/internal/chaos"
	"hivempi/internal/testutil/leakcheck"
)

func newTestFS() *FileSystem {
	return New(Config{
		BlockSize:   64,
		Replication: 3,
		Nodes:       []string{"n1", "n2", "n3", "n4"},
	})
}

func TestWriteReadRoundTrip(t *testing.T) {
	defer leakcheck.Check(t)()
	fs := newTestFS()
	data := bytes.Repeat([]byte("hello dfs "), 50) // 500 bytes > several blocks
	if err := fs.WriteFile("/a/b.txt", data); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/a/b.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip mismatch: got %d bytes want %d", len(got), len(data))
	}
	sz, err := fs.Size("/a/b.txt")
	if err != nil || sz != int64(len(data)) {
		t.Errorf("Size = %d, %v; want %d", sz, err, len(data))
	}
}

// TestWriterSizesLaterBlocksOnce: a file written in 4 KiB chunks over
// three and a quarter blocks reads back byte for byte, each full block
// after the first keeps one buffer from its first byte to its
// publication (no append regrowth), the first block grows by append,
// and the short last block is published clipped to about its length.
func TestWriterSizesLaterBlocksOnce(t *testing.T) {
	const bs = 10000 // not a multiple of the chunk, so writes straddle blocks
	fs := New(Config{BlockSize: bs, Replication: 2, Nodes: []string{"n1", "n2", "n3"}})
	data := make([]byte, 3*bs+bs/4)
	rand.New(rand.NewSource(1)).Read(data)
	w, err := fs.Create("/big")
	if err != nil {
		t.Fatal(err)
	}
	bufs := map[int]map[*byte]bool{} // block index -> buffers seen while current
	for off := 0; off < len(data); off += 4096 {
		if _, err := w.Write(data[off:min(off+4096, len(data))]); err != nil {
			t.Fatal(err)
		}
		blk := len(w.f.blocks)
		if bufs[blk] == nil {
			bufs[blk] = map[*byte]bool{}
		}
		bufs[blk][unsafe.SliceData(w.cur)] = true
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/big")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back %d bytes (%v), want the %d written", len(got), err, len(data))
	}
	if len(w.f.blocks) != 4 {
		t.Fatalf("%d blocks, want 4", len(w.f.blocks))
	}
	if len(bufs[0]) < 2 {
		t.Errorf("first block used %d buffers; it should grow by append", len(bufs[0]))
	}
	last := len(w.f.blocks) - 1
	for i := 1; i < last; i++ {
		b := w.f.blocks[i]
		if len(bufs[i]) != 1 || !bufs[i][unsafe.SliceData(b.data)] || cap(b.data) != bs {
			t.Errorf("block %d: %d buffers while current, published cap %d; want the one %d-byte buffer",
				i, len(bufs[i]), cap(b.data), bs)
		}
	}
	if tail := w.f.blocks[last].data; len(tail) != bs/4 || cap(tail) >= bs/2 {
		t.Errorf("last block: len %d cap %d; want %d bytes clipped below %d", len(tail), cap(tail), bs/4, bs/2)
	}
}

func TestCreateExistsAndOverwrite(t *testing.T) {
	defer leakcheck.Check(t)()
	fs := newTestFS()
	if err := fs.WriteFile("/f", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("/f"); !errors.Is(err, ErrExists) {
		t.Errorf("Create over existing file: err = %v, want ErrExists", err)
	}
	if err := fs.WriteFile("/f", []byte("two")); err != nil {
		t.Fatal(err)
	}
	got, _ := fs.ReadFile("/f")
	if string(got) != "two" {
		t.Errorf("overwrite produced %q", got)
	}
}

func TestOpenMissing(t *testing.T) {
	defer leakcheck.Check(t)()
	fs := newTestFS()
	if _, err := fs.Open("/nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
	if _, err := fs.Size("/nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Size err = %v, want ErrNotFound", err)
	}
}

func TestListAndDeleteDir(t *testing.T) {
	defer leakcheck.Check(t)()
	fs := newTestFS()
	for _, p := range []string{"/w/x/1", "/w/x/2", "/w/y/3", "/z"} {
		if err := fs.WriteFile(p, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	got := fs.List("/w/x")
	if len(got) != 2 || got[0] != "/w/x/1" || got[1] != "/w/x/2" {
		t.Errorf("List(/w/x) = %v", got)
	}
	fs.DeleteDir("/w")
	if len(fs.List("/w")) != 0 {
		t.Error("DeleteDir left files behind")
	}
	if !fs.Exists("/z") {
		t.Error("DeleteDir removed unrelated file")
	}
}

func TestRename(t *testing.T) {
	defer leakcheck.Check(t)()
	fs := newTestFS()
	if err := fs.WriteFile("/src", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/src", "/dst"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/src") {
		t.Error("src still exists after rename")
	}
	got, _ := fs.ReadFile("/dst")
	if string(got) != "payload" {
		t.Errorf("dst content %q", got)
	}
	if err := fs.Rename("/missing", "/x"); !errors.Is(err, ErrNotFound) {
		t.Errorf("rename missing: %v", err)
	}
}

func TestSplitsAlignAndCover(t *testing.T) {
	defer leakcheck.Check(t)()
	fs := newTestFS()
	data := make([]byte, 300) // block size 64 -> 5 blocks
	for i := range data {
		data[i] = byte(i)
	}
	if err := fs.WriteFile("/big", data); err != nil {
		t.Fatal(err)
	}
	splits, err := fs.Splits("/big", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 5 {
		t.Fatalf("got %d splits, want 5", len(splits))
	}
	var covered int64
	for i, s := range splits {
		if s.Offset != covered {
			t.Errorf("split %d offset %d, want %d", i, s.Offset, covered)
		}
		covered += s.Length
		if len(s.Hosts) != 3 {
			t.Errorf("split %d has %d hosts, want 3 (replication)", i, len(s.Hosts))
		}
	}
	if covered != 300 {
		t.Errorf("splits cover %d bytes, want 300", covered)
	}
	// Reading each split via SectionReader reconstructs the file.
	var rebuilt []byte
	for _, s := range splits {
		sr, err := fs.SectionReader(s)
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(sr)
		if err != nil {
			t.Fatal(err)
		}
		rebuilt = append(rebuilt, b...)
	}
	if !bytes.Equal(rebuilt, data) {
		t.Error("section readers do not reconstruct the file")
	}
}

func TestReplicaPlacementBalance(t *testing.T) {
	defer leakcheck.Check(t)()
	fs := newTestFS()
	data := make([]byte, 64*40)
	if err := fs.WriteFile("/balance", data); err != nil {
		t.Fatal(err)
	}
	splits, _ := fs.Splits("/balance", 0)
	counts := map[string]int{}
	for _, s := range splits {
		counts[s.Hosts[0]]++
	}
	// 40 blocks round-robin over 4 nodes -> 10 primaries each.
	for node, c := range counts {
		if c != 10 {
			t.Errorf("node %s has %d primary replicas, want 10", node, c)
		}
	}
}

func TestReaderSeek(t *testing.T) {
	defer leakcheck.Check(t)()
	fs := newTestFS()
	if err := fs.WriteFile("/s", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	r, err := fs.Open("/s")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Seek(4, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 3)
	if _, err := io.ReadFull(r, b); err != nil || string(b) != "456" {
		t.Errorf("seek-read got %q, %v", b, err)
	}
	if _, err := r.Seek(-2, io.SeekEnd); err != nil {
		t.Fatal(err)
	}
	b2, _ := io.ReadAll(r)
	if string(b2) != "89" {
		t.Errorf("SeekEnd read %q", b2)
	}
	if _, err := r.Seek(-100, io.SeekStart); err == nil {
		t.Error("negative seek should fail")
	}
}

func TestCounters(t *testing.T) {
	defer leakcheck.Check(t)()
	fs := newTestFS()
	if err := fs.WriteFile("/c", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if fs.BytesWritten() != 100 {
		t.Errorf("BytesWritten = %d", fs.BytesWritten())
	}
	if _, err := fs.ReadFile("/c"); err != nil {
		t.Fatal(err)
	}
	if fs.BytesRead() != 100 {
		t.Errorf("BytesRead = %d", fs.BytesRead())
	}
}

func TestWriteAfterClose(t *testing.T) {
	defer leakcheck.Check(t)()
	fs := newTestFS()
	w, err := fs.Create("/wc")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("x")); err == nil {
		t.Error("write after close should fail")
	}
	if err := w.Close(); err != nil {
		t.Error("double close should be a no-op")
	}
}

func TestPropertyRoundTripArbitrary(t *testing.T) {
	defer leakcheck.Check(t)()
	fs := New(Config{BlockSize: 17, Nodes: []string{"a", "b"}})
	i := 0
	f := func(data []byte) bool {
		i++
		p := "/p/" + string(rune('a'+i%26)) + string(rune('0'+i%10)) + "-" + itoa(i)
		if err := fs.WriteFile(p, data); err != nil {
			return false
		}
		got, err := fs.ReadFile(p)
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestInjectReadFault(t *testing.T) {
	defer leakcheck.Check(t)()
	fs := newTestFS()
	if err := fs.WriteFile("/flaky", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	fs.InjectReadFault("/flaky", 2)
	for i := 0; i < 2; i++ {
		if _, err := fs.ReadFile("/flaky"); !errors.Is(err, ErrInjectedFault) {
			t.Fatalf("read %d: err = %v, want injected fault", i, err)
		}
	}
	got, err := fs.ReadFile("/flaky")
	if err != nil || string(got) != "payload" {
		t.Errorf("read after faults exhausted: %q, %v", got, err)
	}
	// Other files are unaffected.
	if err := fs.WriteFile("/solid", []byte("x")); err != nil {
		t.Fatal(err)
	}
	fs.InjectReadFault("/flaky", 1)
	if _, err := fs.ReadFile("/solid"); err != nil {
		t.Errorf("unrelated file affected: %v", err)
	}
}

func TestInjectWriteFault(t *testing.T) {
	defer leakcheck.Check(t)()
	fs := newTestFS()
	fs.InjectWriteFault("/out", 2)
	for i := 0; i < 2; i++ {
		if err := fs.WriteFile("/out", []byte("payload")); !errors.Is(err, ErrInjectedFault) {
			t.Fatalf("write %d: err = %v, want injected fault", i, err)
		}
		// Injected writes must also surface the uniform chaos sentinel.
		if err := fs.WriteFile("/other", []byte("x")); err != nil {
			t.Fatalf("unrelated write failed: %v", err)
		}
		fs.InjectWriteFault("/other", 0) // Count<=0 arms one firing
		if err := fs.WriteFile("/other", []byte("x")); !errors.Is(err, chaos.ErrInjected) {
			t.Fatalf("chaos.ErrInjected not matched: %v", err)
		}
	}
	if err := fs.WriteFile("/out", []byte("payload")); err != nil {
		t.Fatalf("write after faults exhausted: %v", err)
	}
	got, err := fs.ReadFile("/out")
	if err != nil || string(got) != "payload" {
		t.Errorf("content after recovery: %q, %v", got, err)
	}
}

// TestSetChaosPlane drives faults through an externally armed plan and
// verifies reads and writes consult it.
func TestSetChaosPlane(t *testing.T) {
	defer leakcheck.Check(t)()
	fs := newTestFS()
	if err := fs.WriteFile("/warehouse/t/part-0", []byte("rows")); err != nil {
		t.Fatal(err)
	}
	plane := chaos.NewPlane(chaos.Plan{Seed: 1, Specs: []chaos.Spec{
		{Kind: chaos.DFSRead, Path: "/warehouse/*", Count: 1},
		{Kind: chaos.DFSWrite, Path: "/tmp/*", Count: 1},
	}})
	fs.SetChaos(plane)
	if _, err := fs.ReadFile("/warehouse/t/part-0"); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("read fault did not fire: %v", err)
	}
	if err := fs.WriteFile("/tmp/spill-0", []byte("x")); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("write fault did not fire: %v", err)
	}
	if plane.Fired(chaos.DFSRead) != 1 || plane.Fired(chaos.DFSWrite) != 1 {
		t.Errorf("fired counters: read=%d write=%d",
			plane.Fired(chaos.DFSRead), plane.Fired(chaos.DFSWrite))
	}
	// Detach: no further faults fire.
	fs.SetChaos(nil)
	fs.SetChaos(chaos.NewPlane(chaos.Plan{Specs: []chaos.Spec{{Kind: chaos.DFSRead}}}))
	fs.SetChaos(nil)
	if _, err := fs.ReadFile("/warehouse/t/part-0"); err != nil {
		t.Errorf("read after detach: %v", err)
	}
}
