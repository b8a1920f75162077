// Live monitor: a DBA-console-style progress bar fed by the progressd
// daemon. The example trains a selector on the workload's own history
// (harvested in parallel), starts the daemon's HTTP server in-process,
// submits a query over HTTP, and polls its live progress — what a
// monitoring dashboard pointed at progressd would display.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"progressest"
)

func bar(frac float64, width int) string {
	n := int(frac * float64(width))
	if n > width {
		n = width
	}
	return "[" + strings.Repeat("=", n) + strings.Repeat(" ", width-n) + "]"
}

func main() {
	w, err := progressest.Open(progressest.Config{
		Dataset: progressest.Real1,
		Queries: 30,
		Scale:   0.25,
		Zipf:    1,
		Design:  progressest.PartiallyTuned,
		Seed:    11,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Train a selector on this system's own history; the harvest fans the
	// queries across all CPUs.
	examples, err := w.Harvest()
	if err != nil {
		log.Fatal(err)
	}
	sel, err := progressest.TrainSelector(examples, progressest.SelectorConfig{Trees: 100})
	if err != nil {
		log.Fatal(err)
	}

	// Start the daemon in-process on a loopback port.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: progressest.NewServer(w, progressest.MonitorOptions{
		Selector:    sel,
		UpdateEvery: 8,
		// Pace execution so the in-memory query runs at the observable
		// speed of the production queries a progress bar exists for.
		Pace: 5 * time.Millisecond,
	})}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	const queryIdx = 27
	fmt.Println("monitoring:", w.QueryText(queryIdx))

	body, _ := json.Marshal(map[string]int{"query": queryIdx})
	resp, err := http.Post(base+"/queries", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body)
		log.Fatalf("submit failed: %s: %s", resp.Status, msg)
	}
	var info struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("submitted as %s via POST %s/queries\n\n", info.ID, base)

	type progressResp struct {
		Done   bool                        `json:"done"`
		Update *progressest.ProgressUpdate `json:"update"`
	}
	var last, lastLive *progressest.ProgressUpdate
	for {
		resp, err := http.Get(base + "/queries/" + info.ID + "/progress")
		if err != nil {
			log.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			log.Fatalf("progress poll failed: %s: %s", resp.Status, msg)
		}
		var pr progressResp
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
		if pr.Update != nil && (last == nil || pr.Update.Seq != last.Seq) {
			last = pr.Update
			if !last.Done {
				lastLive = last
			}
			fmt.Printf("  %s %5.1f%%  t=%8.0f", bar(last.Query, 32), 100*last.Query, last.Time)
			for _, pp := range last.Pipelines {
				if pp.Started && !pp.Done {
					fmt.Printf("   p%d %s %4.1f%%", pp.Pipeline, pp.EstimatorName, 100*pp.Estimate)
				}
			}
			fmt.Println()
		}
		if pr.Done {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	fmt.Println("\nquery done")
	if lastLive != nil {
		fmt.Printf("last in-flight estimate: %.1f%% at t=%.0f (of %.0f total — true %.1f%%)\n",
			100*lastLive.Query, lastLive.Time, last.Time, 100*lastLive.Time/last.Time)
	}
}
