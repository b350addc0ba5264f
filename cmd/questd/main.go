// Command questd is QUEST's front-door serving daemon: an HTTP/JSON
// keyword-search service (internal/serve) over any of the three
// deployment shapes. By default it builds a dataset in process and
// serves a single-process engine; -shards N > 1 splits the same dataset
// into N in-process hash partitions behind the sharded executor; -remote
// dials a questshardd fleet instead, so this process is a stateless
// coordinator + front door:
//
//	questd -addr :8080 -dataset imdb -scale 2
//	questd -addr :8080 -dataset imdb -shards 4
//	questd -addr :8080 -dataset imdb -remote ':4730,:4731;:4732,:4733' -hash-routing
//
// The -remote list is one group per shard, groups separated by ';',
// replicas of one shard separated by ',' — the same topology
// quest.OpenRemote takes. -hash-routing declares the fleet was started
// with matching -shards flags (PK partition pruning).
//
// See internal/serve for the HTTP API: /v1/search, /v1/sql, /v1/stats,
// /healthz, the X-Quest-Tenant / X-Quest-Deadline-Ms headers and typed
// error codes. The admission knobs (-rate, -burst, -max-queue,
// -max-concurrent, deadlines) map one-to-one onto serve.Options.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	quest "repro"
	"repro/internal/serve"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:8080", "HTTP listen address")
		dataset = flag.String("dataset", "imdb", "dataset served: imdb, mondial or dblp")
		seed    = flag.Int64("seed", 42, "dataset seed (with -remote, must match the fleet)")
		scale   = flag.Int("scale", 1, "dataset scale")
		shards  = flag.Int("shards", 1, "in-process hash partitions (>1 selects the sharded executor)")
		remote  = flag.String("remote", "",
			"questshardd fleet to dial instead of in-process data: shard groups separated by ';', replica addresses by ','")
		hashRouting = flag.Bool("hash-routing", false,
			"with -remote: fleet holds hash partitions with matching -shards flags (enables PK partition pruning)")
		k     = flag.Int("k", 10, "explanations returned per search")
		prune = flag.Bool("prune", false, "validate candidate explanations and drop empty-result ones")

		rate = flag.Float64("rate", 0,
			"per-tenant admitted requests per second (0 selects the default, negative disables rate limiting)")
		burst    = flag.Int("burst", 0, "per-tenant burst capacity (0 selects 2x rate)")
		maxQueue = flag.Int("max-queue", 0,
			"admitted requests allowed to wait beyond the executing ones before shedding (0 selects the default, negative disables shedding)")
		maxConcurrent = flag.Int("max-concurrent", 0, "searches executing at once (0 selects GOMAXPROCS)")
		defDeadline   = flag.Duration("default-deadline", 0, "deadline for requests without a deadline header (0 selects 5s)")
		maxDeadline   = flag.Duration("max-deadline", 0, "upper clamp on client-requested deadlines (0 selects 30s)")
	)
	flag.Parse()

	cfg := quest.DatasetConfig{Seed: *seed, Scale: *scale}
	var db *quest.Database
	switch *dataset {
	case "imdb":
		db = quest.BuildIMDB(cfg)
	case "mondial":
		db = quest.BuildMondial(cfg)
	case "dblp":
		db = quest.BuildDBLP(cfg)
	default:
		fmt.Fprintf(os.Stderr, "questd: unknown dataset %q\n", *dataset)
		os.Exit(2)
	}

	opts := quest.Defaults()
	opts.K = *k
	opts.PruneEmpty = *prune

	var (
		eng   *quest.Engine
		err   error
		shape string
	)
	switch {
	case *remote != "":
		groups := parseShardGroups(*remote)
		if len(groups) == 0 {
			fmt.Fprintln(os.Stderr, "questd: -remote lists no shard addresses")
			os.Exit(2)
		}
		ropt := quest.RemoteOptions{AssumeHashRouting: *hashRouting}
		eng, err = quest.OpenRemote(db.Schema, *dataset, groups, ropt, opts)
		shape = fmt.Sprintf("remote fleet of %d shard groups", len(groups))
	case *shards > 1:
		eng, err = quest.OpenSharded(db, *shards, opts)
		shape = fmt.Sprintf("%d in-process partitions", *shards)
	case *shards < 1:
		fmt.Fprintf(os.Stderr, "questd: -shards must be >= 1, got %d\n", *shards)
		os.Exit(2)
	default:
		eng = quest.Open(db, opts)
		shape = "single process"
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "questd: open: %v\n", err)
		os.Exit(1)
	}

	srv := serve.New(eng, serve.Options{
		DefaultDeadline: *defDeadline,
		MaxDeadline:     *maxDeadline,
		MaxConcurrent:   *maxConcurrent,
		MaxQueue:        *maxQueue,
		TenantRate:      *rate,
		TenantBurst:     *burst,
	})

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "questd: listen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("questd: serving %s (%s) on http://%s\n", *dataset, shape, l.Addr())
	hs := &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second}
	if err := hs.Serve(l); err != nil {
		fmt.Fprintf(os.Stderr, "questd: serve: %v\n", err)
		os.Exit(1)
	}
}

// parseShardGroups splits ':4730,:4731;:4732' into per-shard replica
// address groups, dropping empty entries so trailing separators are
// harmless.
func parseShardGroups(s string) [][]string {
	var groups [][]string
	for _, g := range strings.Split(s, ";") {
		var addrs []string
		for _, a := range strings.Split(g, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		if len(addrs) > 0 {
			groups = append(groups, addrs)
		}
	}
	return groups
}
