// Quickstart: spin up an in-process warehouse, create a table, load
// rows, and run the same HiveQL on both execution engines.
package main

import (
	"fmt"
	"log"

	"hivempi/internal/core"
	"hivempi/internal/dfs"
	"hivempi/internal/exec"
	"hivempi/internal/hive"
	"hivempi/internal/mrengine"
	"hivempi/internal/types"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A simulated 7-node cluster: the DFS places replicated 64 KB
	// blocks (64 MB at paper scale) across the slaves.
	env := &exec.Env{FS: dfs.New(dfs.Config{
		BlockSize: 64 << 10,
		Nodes: []string{"slave1", "slave2", "slave3", "slave4",
			"slave5", "slave6", "slave7"},
	})}
	conf := exec.DefaultEngineConf()

	for _, engine := range []exec.Engine{core.New(), mrengine.New()} {
		d := hive.NewDriver(env, engine, conf)

		if _, err := d.Run(`
			CREATE TABLE visits (page string, country string, ms bigint) STORED AS orc;
		`); err != nil {
			return err
		}
		var rows []types.Row
		pages := []string{"/home", "/home", "/home", "/search", "/search",
			"/checkout", "/about"} // skewed traffic
		countries := []string{"DE", "US", "JP"}
		for i := 0; i < 10000; i++ {
			rows = append(rows, types.Row{
				types.String(pages[i%len(pages)]),
				types.String(countries[i%len(countries)]),
				types.Int(int64(10 + i%500)),
			})
		}
		if err := d.LoadTableData("visits", 0, rows); err != nil {
			return err
		}

		res, err := d.Execute(`
			SELECT page, count(*) AS hits, avg(ms) AS avg_ms
			FROM visits
			WHERE country IN ('DE', 'US')
			GROUP BY page
			HAVING count(*) > 100
			ORDER BY hits DESC
			LIMIT 3`)
		if err != nil {
			return err
		}
		fmt.Printf("engine=%s (%d stages)\n", engine.Name(), len(res.Stages))
		fmt.Println("  page        hits   avg_ms")
		for _, r := range res.Rows {
			fmt.Printf("  %-10s %5d   %6.1f\n", r[0].Str(), r[1].Int(), r[2].Float())
		}

		// Same cluster, next engine: drop the table so the second pass
		// starts clean.
		if _, err := d.Execute("DROP TABLE visits"); err != nil {
			return err
		}
	}
	return nil
}
