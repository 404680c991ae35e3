package dataset

// parallel.go fans story simulation out across a worker pool. Stories
// are statistically independent given the graph (the promotion policy
// sees only the story it judges), and every story draws exclusively
// from a substream keyed by (seed, story index), so scheduling order
// cannot leak into the corpus: workers=1 and workers=N produce
// bit-identical vote histories. Each worker owns one agent.Runner,
// whose scratch buffers (timing wheel, voter/audience bitsets) are
// reused across all stories the worker simulates.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"diggsim/internal/agent"
	"diggsim/internal/digg"
	"diggsim/internal/graph"
	"diggsim/internal/rng"
)

// simulateStories runs every job through an agent.Runner and returns
// the finished stories indexed like jobs. cfg.Workers selects the pool
// size; 0 uses one worker per available CPU.
func simulateStories(cfg Config, g *graph.Graph, simSeed uint64, jobs []storyJob) ([]*digg.Story, error) {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	stories := make([]*digg.Story, len(jobs))
	runJob := func(rn *agent.Runner, i int) error {
		job := jobs[i]
		st, err := rn.Run(
			rng.Substream(simSeed, uint64(i)),
			digg.StoryID(i), job.submitter,
			fmt.Sprintf("story-%04d", i), job.interest, job.at,
		)
		if err != nil {
			return fmt.Errorf("dataset: story %d: %w", i, err)
		}
		stories[i] = st
		return nil
	}

	if workers <= 1 {
		rn, err := agent.NewRunner(g, cfg.Agent, cfg.Policy)
		if err != nil {
			return nil, err
		}
		for i := range jobs {
			if err := runJob(rn, i); err != nil {
				return nil, err
			}
		}
		return stories, nil
	}

	var (
		next    atomic.Int64
		failed  atomic.Bool
		wg      sync.WaitGroup
		errOnce sync.Once
		firstEr error
	)
	for w := 0; w < workers; w++ {
		rn, err := agent.NewRunner(g, cfg.Agent, cfg.Policy)
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) || failed.Load() {
					return
				}
				if err := runJob(rn, i); err != nil {
					errOnce.Do(func() { firstEr = err })
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstEr != nil {
		return nil, firstEr
	}
	return stories, nil
}
