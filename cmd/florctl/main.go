// Command florctl is the fleet-side companion to flord: it fans a query out
// to N daemons and merges what comes back, so an operator watching several
// replay daemons (one per project, per team, per machine) reads one view
// instead of N browser tabs.
//
//	florctl scrape host1:7707 host2:7707   # one merged Prometheus scrape
//	florctl top host1:7707 host2:7707      # fleet table from /v1/stats
//	florctl migrate old-run new-run [pool] # copy a run into a writable layout
//
// scrape fetches every target's /metrics and emits a single Prometheus
// text-format document: counters and gauges with identical series labels are
// summed, histograms are merged bucket-wise (every daemon shares the same
// bucket bounds, so same-le series add), and trace-ID exemplars — which name
// traces on one specific daemon — are stripped from the merged view. Family
// and series order follow the first target that reported them, so diffs of
// consecutive merged scrapes stay stable.
//
// top fetches every target's /v1/stats and renders one row per (target,
// run): in-flight and queued queries, the age of the longest-running query,
// query counts, slow-query counts, and the run's cumulative restored bytes
// with their store-tier attribution summarized as a payload-cache share and
// the bytes borrowed from other queries' in-flight remote GETs (SFLIGHT).
//
// Targets are host:port or full http(s) URLs; -timeout bounds each fetch.
// A target that fails to respond is reported on stderr and skipped — a
// half-down fleet still renders — but florctl exits nonzero.
//
// migrate copies a recorded run (core.Migrate) into a fresh directory in a
// layout this build writes — a private store, or a run of the shared pool
// named third — reading the source once and never writing it. A run an
// older build left (format v1, a sharded or multi-root store, a pool of
// several packs, a manifest with segment-file checkpoints) fails every
// open — replay, serving and upload included — with a message naming this
// command, the one way to replay, serve, record into or GC its checkpoints
// again.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"flor.dev/flor/internal/core"
	"flor.dev/flor/internal/serve"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  florctl scrape [-timeout 5s] <target>...   merged Prometheus scrape
  florctl top    [-timeout 5s] <target>...   fleet view of /v1/stats
  florctl migrate <src> <dst> [pool]         copy a run into a writable layout

targets are host:port or http(s) URLs of flord daemons
`)
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, rest := os.Args[1], os.Args[2:]
	if cmd == "migrate" {
		if len(rest) < 2 || len(rest) > 3 {
			usage()
			os.Exit(2)
		}
		pool := ""
		if len(rest) == 3 {
			pool = rest[2]
		}
		if err := core.Migrate(rest[0], rest[1], pool); err != nil {
			fmt.Fprintln(os.Stderr, "florctl:", err)
			os.Exit(1)
		}
		return
	}
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	timeout := fs.Duration("timeout", 5*time.Second, "per-target fetch deadline")
	fs.Parse(rest)
	targets := fs.Args()
	if len(targets) == 0 {
		usage()
		os.Exit(2)
	}
	client := &http.Client{Timeout: *timeout}
	var err error
	switch cmd {
	case "scrape":
		err = runScrape(client, targets, os.Stdout)
	case "top":
		err = runTop(client, targets, os.Stdout)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "florctl:", err)
		os.Exit(1)
	}
}

// normalizeTarget turns host:port into a full base URL.
func normalizeTarget(t string) string {
	if !strings.Contains(t, "://") {
		t = "http://" + t
	}
	return strings.TrimRight(t, "/")
}

// runScrape merges every target's /metrics into one Prometheus text
// document on w. Unreachable targets are skipped with a note on stderr; the
// merge of the reachable ones still renders, but the error is reported.
func runScrape(client *http.Client, targets []string, w io.Writer) error {
	merged := newScrape()
	var failed []string
	for _, t := range targets {
		resp, err := client.Get(normalizeTarget(t) + "/metrics")
		if err != nil {
			fmt.Fprintf(os.Stderr, "florctl: %s: %v\n", t, err)
			failed = append(failed, t)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			fmt.Fprintf(os.Stderr, "florctl: %s: /metrics returned %d\n", t, resp.StatusCode)
			failed = append(failed, t)
			continue
		}
		err = merged.parse(resp.Body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", t, err)
		}
	}
	if err := merged.render(w); err != nil {
		return err
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d of %d targets unreachable: %s", len(failed), len(targets), strings.Join(failed, ", "))
	}
	return nil
}

// runTop renders one fleet table from every target's /v1/stats.
func runTop(client *http.Client, targets []string, w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "TARGET\tRUN\tINFL\tQUEUED\tOLDEST\tREPLAYS\tSAMPLES\tERRORS\tSLOW\tRESTORED\tCACHE%\tSFLIGHT")
	var failed []string
	for _, t := range targets {
		st, err := fetchStats(client, t)
		if err != nil {
			fmt.Fprintf(os.Stderr, "florctl: %s: %v\n", t, err)
			failed = append(failed, t)
			continue
		}
		ids := make([]string, 0, len(st.Runs))
		for id := range st.Runs {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		label := t
		if st.Draining {
			label += " (draining)"
		}
		if len(ids) == 0 {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t-\t-\t-\t-\t-\t-\t-\n", label)
			continue
		}
		for _, id := range ids {
			rs := st.Runs[id]
			oldest := "-"
			if rs.OldestQueryAgeSeconds > 0 {
				oldest = fmt.Sprintf("%.1fs", rs.OldestQueryAgeSeconds)
			}
			// The cache share of the run's tier-attributed fetch traffic:
			// how much of its restore volume the payload cache absorbed.
			cachePct := "-"
			if total := rs.Cost.Fetch.TotalBytes(); total > 0 {
				cachePct = fmt.Sprintf("%.0f%%", 100*float64(rs.Cost.Fetch.CacheBytes)/float64(total))
			}
			// Bytes this run's queries borrowed from another query's
			// in-flight remote GET instead of issuing their own.
			sflight := "-"
			if rs.Cost.Fetch.SingleflightBytes > 0 {
				sflight = fmtBytes(rs.Cost.Fetch.SingleflightBytes)
			}
			fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%s\t%d\t%d\t%d\t%d\t%s\t%s\t%s\n",
				label, id, rs.Inflight, rs.Queued, oldest,
				rs.Replays, rs.Samples, rs.Errors, rs.SlowQueries,
				fmtBytes(rs.Cost.RestoredBytes), cachePct, sflight)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d of %d targets unreachable: %s", len(failed), len(targets), strings.Join(failed, ", "))
	}
	return nil
}

func fetchStats(client *http.Client, target string) (*serve.Stats, error) {
	resp, err := client.Get(normalizeTarget(target) + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/v1/stats returned %d", resp.StatusCode)
	}
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// fmtBytes renders a byte count with a binary unit suffix.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
