package hive

import (
	"fmt"
	"testing"

	"hivempi/internal/chaos"
	"hivempi/internal/dfs"
	"hivempi/internal/exec"
	"hivempi/internal/types"
)

// TestCollectedRowsSurviveMapRetry runs a collected map-only query
// over one Text file on both engines, clean and with one injected dfs
// read failure at every position the scan reaches. A failed map attempt
// may already have collected a batch of rows before the read fails;
// its retry must replace those rows, not add to them, and the rows
// must come back in task order whatever the goroutine schedule.
func TestCollectedRowsSurviveMapRetry(t *testing.T) {
	const n = 5000
	regions := []string{"east", "west", "north", "south"}
	rows := make([]types.Row, n)
	want := make([]string, n)
	for i := range rows {
		rows[i] = types.Row{types.String(regions[i%len(regions)]), types.Int(int64(i))}
		want[i] = rows[i].Text('|')
	}
	for name, engine := range engines(t) {
		for after := -1; after <= 9; after++ {
			t.Run(fmt.Sprintf("%s/after=%d", name, after), func(t *testing.T) {
				env := &exec.Env{FS: dfs.New(dfs.Config{
					BlockSize: 4 << 20,
					Nodes:     []string{"s1", "s2", "s3"},
				})}
				conf := exec.DefaultEngineConf()
				conf.Slaves = []string{"s1", "s2", "s3"}
				conf.SlotsPerNode = 2
				conf.MaxTaskAttempts = 3
				d := NewDriver(env, engine, conf)
				if _, err := d.Run("CREATE TABLE big (region string, qty int) STORED AS textfile"); err != nil {
					t.Fatal(err)
				}
				if err := d.LoadTableData("big", 0, rows); err != nil {
					t.Fatal(err)
				}
				var plane *chaos.Plane
				if after >= 0 {
					tbl, err := d.MS.Get("big")
					if err != nil {
						t.Fatal(err)
					}
					plane = chaos.NewPlane(chaos.Plan{Specs: []chaos.Spec{
						{Kind: chaos.DFSRead, Path: tbl.Location + "/*", After: after, Count: 1},
					}})
					d.Env.Chaos = plane
					d.Env.FS.SetChaos(plane)
				}
				res, err := d.Execute("SELECT region, qty FROM big WHERE qty >= 0")
				if err != nil {
					t.Fatal(err)
				}
				if plane != nil && plane.Fired(chaos.DFSRead) != 1 {
					t.Fatalf("the read fault fired %d times, want 1", plane.Fired(chaos.DFSRead))
				}
				if len(res.Rows) != n {
					t.Fatalf("got %d rows, want %d", len(res.Rows), n)
				}
				for i, r := range res.Rows {
					if got := r.Text('|'); got != want[i] {
						t.Fatalf("row %d = %q, want %q", i, got, want[i])
					}
				}
			})
		}
	}
}
