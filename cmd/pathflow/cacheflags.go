package main

import (
	"context"
	"flag"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"pathflow/internal/engine"
)

// cacheFlags is the persistent-cache flag trio shared by analyze, exp
// and serve: where the disk tier lives, how big it may grow, and the
// in-memory tier's ceiling.
type cacheFlags struct {
	dir *string
	max *string
	mem *string
}

func addCacheFlags(fs *flag.FlagSet, memDefault string) *cacheFlags {
	return &cacheFlags{
		dir: fs.String("cachedir", "", "persistent artifact cache directory (empty = memory only); warm starts decode cached artifacts instead of recomputing"),
		max: fs.String("cachemax", "", "disk cache size bound, e.g. 256M or 2G (empty = unbounded)"),
		mem: fs.String("cachemem", memDefault, "in-memory cache size bound, e.g. 512M (empty = unbounded)"),
	}
}

// engineConfig folds the cache flags into an engine configuration.
func (c *cacheFlags) engineConfig(workers int, cache bool) (engine.Config, error) {
	maxBytes, err := parseSize(*c.max)
	if err != nil {
		return engine.Config{}, fmt.Errorf("-cachemax: %w", err)
	}
	memBytes, err := parseSize(*c.mem)
	if err != nil {
		return engine.Config{}, fmt.Errorf("-cachemem: %w", err)
	}
	return engine.Config{
		Workers:        workers,
		Cache:          cache,
		MemoryMaxBytes: memBytes,
		CacheDir:       *c.dir,
		CacheMaxBytes:  maxBytes,
	}, nil
}

// parseSize parses a human-friendly byte size: a plain integer, or one
// with a K/M/G suffix (binary multiples). Empty means 0 (unbounded).
func parseSize(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
		mult, s = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
		mult, s = 1<<20, s[:len(s)-1]
	case strings.HasSuffix(s, "G"), strings.HasSuffix(s, "g"):
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad size %q (want e.g. 1048576, 64M, 2G)", s)
	}
	return n * mult, nil
}

// provTracker aggregates per-stage artifact provenance (computed /
// memory / disk) across a run, for `exp -v`, with the compute time of
// the computed runs and the decode time of the disk hits.
type provTracker struct {
	mu    sync.Mutex
	stats map[engine.StageName]*provStats
}

// provStats is one stage's row of the provenance table.
type provStats struct {
	counts  [3]int // indexed by engine.Provenance
	compute time.Duration
	decode  time.Duration
}

// install wires the tracker into ctx as a stage observer.
func (p *provTracker) install(ctx context.Context) context.Context {
	p.stats = map[engine.StageName]*provStats{}
	return engine.WithStageObserver(ctx, func(ev engine.StageEvent) {
		p.mu.Lock()
		st := p.stats[ev.Stage]
		if st == nil {
			st = new(provStats)
			p.stats[ev.Stage] = st
		}
		if int(ev.Source) < len(st.counts) {
			st.counts[ev.Source]++
		}
		switch ev.Source {
		case engine.SourceComputed:
			st.compute += ev.Duration
		case engine.SourceDisk:
			st.decode += ev.Decode
		}
		p.mu.Unlock()
	})
}

// print renders the provenance table, stages in pipeline order.
func (p *provTracker) print() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.stats) == 0 {
		return
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	fmt.Printf("\nper-stage cache provenance:\n")
	fmt.Printf("%-10s %9s %9s %9s %11s %10s\n", "stage", "computed", "memory", "disk", "compute ms", "decode ms")
	for _, s := range engine.StageOrder {
		st := p.stats[s]
		if st == nil {
			continue
		}
		c := st.counts
		fmt.Printf("%-10s %9d %9d %9d %11.1f %10.1f\n", s,
			c[engine.SourceComputed], c[engine.SourceMemory], c[engine.SourceDisk], ms(st.compute), ms(st.decode))
	}
}

// printCacheStats prints the cache summary line(s) after a run.
func printCacheStats(st engine.CacheStats) {
	if st.Hits+st.Misses > 0 {
		fmt.Printf("artifact cache: %d hits, %d misses, %d entries", st.Hits, st.Misses, st.Entries)
		if st.MemEvictions > 0 {
			fmt.Printf(", %d evicted", st.MemEvictions)
		}
		fmt.Println()
	}
	if st.DiskEnabled {
		d := st.Disk
		fmt.Printf("disk cache: %d hits, %d misses, %d writes, %d entries (%s)",
			d.Hits, d.Misses, d.Writes, d.Entries, fmtBytes(d.Bytes))
		if d.Evictions > 0 {
			fmt.Printf(", %d evicted", d.Evictions)
		}
		if d.Rejects > 0 {
			fmt.Printf(", %d rejected", d.Rejects)
		}
		fmt.Println()
	}
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}
