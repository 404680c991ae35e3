package agent

// engine.go implements the event-driven scheduler behind both the
// platform-backed Simulator and the standalone Runner. Instead of
// stepping every story minute-by-minute across the horizon, the engine
// jumps directly between the only two kinds of events the behaviour
// model produces:
//
//   - pending Friends-interface exposures, kept in a minute-bucketed
//     timing wheel with a bitmap index over occupied slots, and
//   - interest-based discovery votes, drawn by sampling exponential
//     inter-arrival gaps (with thinning against the decaying front-page
//     rate, so the arrival intensity matches the per-minute Poisson
//     model it replaces).
//
// Per-story voter and audience membership live in bitsets
// (internal/dense, one bit per user) reused across stories: beginStory
// clears their words in place instead of reallocating, so simulating a
// story performs no per-story map work at all.

import (
	"errors"
	"math"
	"math/bits"

	"diggsim/internal/dense"
	"diggsim/internal/digg"
	"diggsim/internal/graph"
	"diggsim/internal/rng"
)

// voteSink records a vote produced by the engine. Implementations
// append the vote to the story (directly or through the platform),
// apply the promotion policy, and report whether the vote was
// in-network and whether it triggered promotion.
type voteSink interface {
	castVote(u digg.UserID, t digg.Minutes) (digg.DiggResult, error)
}

// engine holds the scheduler state and the scratch buffers reused
// across stories. It is not safe for concurrent use; each worker owns
// one engine.
type engine struct {
	cfg Config
	g   *graph.Graph
	rng *rng.RNG

	// Bitset membership sets over UserIDs; beginStory clears both in
	// place, so stories allocate no per-story membership state.
	voted dense.Set
	aud   dense.Set

	// Timing wheel for one-shot Friends-interface exposures: one bucket
	// per minute offset from the story's submission, with a bitmap over
	// occupied slots so the next event is found by word scanning.
	wheelBase digg.Minutes
	wheel     [][]digg.UserID
	occupied  []uint64
	scanPos   int // lowest offset that may hold a pending exposure
	pending   int

	// Resume state for incremental stepping, valid between begin and
	// the stepUntil call that reports the story done. Keeping it on the
	// engine lets a live Stepper advance a story's lifetime in slices
	// (one engine per live story) while run replays the exact same
	// draw sequence in a single call.
	interest      float64
	pVote         float64
	nextDisc      float64
	queueDeadline digg.Minutes
	deadline      digg.Minutes
}

func newEngine(g *graph.Graph, cfg Config, r *rng.RNG) *engine {
	return &engine{cfg: cfg, g: g, rng: r}
}

// beginStory prepares the scratch buffers for a story submitted at base
// whose events all land in [base, base+span].
func (e *engine) beginStory(base digg.Minutes, span int) {
	n := e.g.NumNodes()
	e.voted.Reset(n)
	e.aud.Reset(n)

	slots := span + 1
	if len(e.wheel) < slots {
		old := len(e.wheel)
		e.wheel = append(e.wheel, make([][]digg.UserID, slots-old)...)
		words := (slots + 63) / 64
		if len(e.occupied) < words {
			e.occupied = append(e.occupied, make([]uint64, words-len(e.occupied))...)
		}
	}
	e.wheelBase = base
	e.scanPos = 0
	e.pending = 0
}

// endStory releases per-story wheel state, leaving the buffers empty
// for the next story. Only occupied slots are visited.
func (e *engine) endStory() {
	if e.pending == 0 {
		return
	}
	for w, word := range e.occupied {
		for word != 0 {
			off := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			e.wheel[off] = e.wheel[off][:0]
		}
		e.occupied[w] = 0
	}
	e.pending = 0
}

func (e *engine) isVoted(u digg.UserID) bool { return e.voted.Contains(int(u)) }

func (e *engine) markVoted(u digg.UserID) { e.voted.Add(int(u)) }

func (e *engine) inAudience(u digg.UserID) bool { return e.aud.Contains(int(u)) }

// scheduleExposure queues u's one-shot exposure at minute at.
func (e *engine) scheduleExposure(u digg.UserID, at digg.Minutes) {
	off := int(at - e.wheelBase)
	e.wheel[off] = append(e.wheel[off], u)
	e.occupied[off>>6] |= 1 << (off & 63)
	e.pending++
	if off < e.scanPos {
		e.scanPos = off
	}
}

// nextExposure peeks the earliest pending exposure minute.
func (e *engine) nextExposure() (digg.Minutes, bool) {
	if e.pending == 0 {
		return 0, false
	}
	w := e.scanPos >> 6
	rem := e.scanPos & 63
	for ; w < len(e.occupied); w++ {
		word := e.occupied[w]
		if rem > 0 {
			word &= ^uint64(0) << rem
			rem = 0
		}
		if word != 0 {
			off := w<<6 + bits.TrailingZeros64(word)
			e.scanPos = off
			return e.wheelBase + digg.Minutes(off), true
		}
	}
	return 0, false
}

// takeBucket removes and returns the bucket at minute at. The returned
// slice aliases the wheel slot's backing array, which is safe to walk
// while processing: exposures scheduled during processing always land
// in strictly later slots, so the array cannot be clobbered before the
// walk finishes.
func (e *engine) takeBucket(at digg.Minutes) []digg.UserID {
	off := int(at - e.wheelBase)
	due := e.wheel[off]
	e.wheel[off] = due[:0] // keep capacity for reuse by later stories
	e.occupied[off>>6] &^= 1 << (off & 63)
	e.pending -= len(due)
	e.scanPos = off + 1
	return due
}

// absorbFans schedules exposures for the fans of voter that have not
// been in the audience before. Exposures that would land beyond the
// deadline never happen.
func (e *engine) absorbFans(voter digg.UserID, now, deadline digg.Minutes) {
	for _, fan := range e.g.Fans(voter) {
		if e.inAudience(fan) {
			continue
		}
		e.aud.Add(int(fan))
		if e.isVoted(fan) {
			continue
		}
		delay := digg.Minutes(e.rng.ExpFloat64()*e.cfg.ExposureDelayMean) + 1
		at := now + delay
		if at > deadline {
			continue // never browses in time
		}
		e.scheduleExposure(fan, at)
	}
}

// exposureDeadline bounds newly scheduled exposures given the story's
// promotion state: the queue deadline while unpromoted, the horizon
// afterwards.
func exposureDeadline(st *digg.Story, queueDeadline, horizonDeadline digg.Minutes) digg.Minutes {
	if st.Promoted {
		return horizonDeadline
	}
	return queueDeadline
}

// frontPageRate is the decaying front-page vote intensity at continuous
// time t for a story promoted at promotedAt.
func (e *engine) frontPageRate(interest float64, promotedAt digg.Minutes, t float64) float64 {
	age := t - float64(promotedAt)
	return e.cfg.FrontPageRate * interest * math.Exp2(-age/float64(e.cfg.NoveltyHalfLife))
}

// nextDiscovery advances the discovery-arrival sampler from continuous
// time tCur and returns the next arrival. While the story sits in the
// queue the process is homogeneous with the quadratic-interest rate;
// after promotion the decaying front-page rate is sampled by thinning:
// propose a gap from the rate at the current time (an upper envelope,
// since the rate only decays) and accept with the ratio of the true
// rate at the candidate to the envelope. Returns +Inf when no further
// arrival can land before limit.
func (e *engine) nextDiscovery(st *digg.Story, interest, tCur, limit float64) float64 {
	if !st.Promoted {
		rate := e.cfg.QueueDiscoveryRate * interest * interest
		return tCur + e.rng.ExpGap(rate)
	}
	hl := float64(e.cfg.NoveltyHalfLife)
	for {
		env := e.frontPageRate(interest, st.PromotedAt, tCur)
		if env <= 0 {
			return math.Inf(1)
		}
		gap := e.rng.ExpGap(env)
		tCur += gap
		if tCur > limit {
			return math.Inf(1)
		}
		// Acceptance ratio rate(tCur)/env collapses to 2^(-gap/hl).
		if e.rng.Float64() < math.Exp2(-gap/hl) {
			return tCur
		}
	}
}

// randomNonVoter picks a uniformly random user who has not voted on the
// story, giving up after a bounded number of rejections (which only
// happens when nearly everyone voted).
func (e *engine) randomNonVoter(n int) (digg.UserID, bool) {
	if n <= 0 || e.voted.Len() >= n {
		return 0, false
	}
	for tries := 0; tries < 64; tries++ {
		u := digg.UserID(e.rng.Intn(n))
		if !e.isVoted(u) {
			return u, true
		}
	}
	return 0, false
}

// begin prepares the engine to simulate st: scratch buffers are reset,
// the submitter's fans are exposed, and the first discovery arrival is
// sampled. The submitter's implicit vote must already be recorded on
// st. After begin, stepUntil advances the lifetime; call endStory when
// the story is done or abandoned.
func (e *engine) begin(st *digg.Story, interest float64) {
	submitTime := st.SubmittedAt
	e.deadline = submitTime + e.cfg.Horizon
	e.queueDeadline = submitTime + e.cfg.QueueLifetime
	if e.queueDeadline > e.deadline {
		e.queueDeadline = e.deadline
	}

	e.beginStory(submitTime, int(e.deadline-submitTime))
	e.markVoted(st.Submitter)
	e.absorbFans(st.Submitter, submitTime, exposureDeadline(st, e.queueDeadline, e.deadline))

	e.interest = interest
	e.pVote = e.cfg.FanVoteProb(interest)
	e.nextDisc = e.nextDiscovery(st, interest, float64(submitTime), float64(e.deadline))
}

// stepUntil processes every pending event at or before until, in event
// order, and reports whether the story's lifetime is complete (no
// further event can ever produce a vote). Stopping at until consumes no
// randomness: the next exposure is a peek and the next discovery
// arrival is already sampled, so advancing to the horizon in one call
// or in many slices yields the identical vote history.
func (e *engine) stepUntil(st *digg.Story, sink voteSink, until digg.Minutes, events *[]VoteEvent) (bool, error) {
	n := e.g.NumNodes()
	limit := float64(e.deadline)
	for {
		if e.cfg.MaxVotes > 0 && st.VoteCount() >= e.cfg.MaxVotes {
			return true, nil
		}
		if e.voted.Len() >= n {
			return true, nil // population exhausted: no event can produce a vote
		}
		// Unpromoted stories freeze at the queue deadline; promoted ones
		// run to the horizon.
		phaseEnd := exposureDeadline(st, e.queueDeadline, e.deadline)
		expAt, hasExp := e.nextExposure()
		// An arrival during minute interval (m-1, m] is stamped m, the
		// minute boundary where the per-minute model counted it. The
		// float comparison also rejects +Inf and arrivals too large to
		// stamp (conversion would overflow); only in-range arrivals are
		// converted. floor(t)+1 <= phaseEnd is exactly t < phaseEnd.
		var discAt digg.Minutes
		hasDisc := e.nextDisc < float64(phaseEnd)
		if hasDisc {
			discAt = digg.Minutes(e.nextDisc) + 1
		}
		if !hasExp && !hasDisc {
			return true, nil
		}

		if hasExp && (!hasDisc || expAt <= discAt) {
			if expAt > until {
				return false, nil
			}
			// Network-based spread: the due one-shot exposures.
			wasPromoted := st.Promoted
			for _, u := range e.takeBucket(expAt) {
				if e.isVoted(u) || !e.rng.Bool(e.pVote) {
					continue
				}
				if err := e.deliverVote(st, sink, u, expAt, MechanismNetwork, events); err != nil {
					return false, err
				}
			}
			if !wasPromoted && st.Promoted {
				// Promotion mid-bucket: restart the arrival sampler on
				// the front-page rate from the promotion minute.
				e.nextDisc = e.nextDiscovery(st, e.interest, float64(expAt), limit)
			}
			continue
		}

		if discAt > until {
			return false, nil
		}
		// Interest-based spread: one sampled discovery arrival.
		u, ok := e.randomNonVoter(n)
		if ok {
			mech := MechanismQueue
			if st.Promoted {
				mech = MechanismFrontPage
			}
			if err := e.deliverVote(st, sink, u, discAt, mech, events); err != nil {
				return false, err
			}
		}
		// Advance the sampler. If this vote just triggered promotion,
		// nextDiscovery already sees st.Promoted and resamples on the
		// front-page rate from the same continuous time.
		e.nextDisc = e.nextDiscovery(st, e.interest, e.nextDisc, limit)
	}
}

// run simulates st's whole lifetime with the next-event loop. The
// submitter's implicit vote must already be recorded on st; events,
// when non-nil, receives one VoteEvent per additional vote.
func (e *engine) run(st *digg.Story, sink voteSink, interest float64, events *[]VoteEvent) error {
	e.begin(st, interest)
	defer e.endStory()
	// Every schedulable event lands at or before the horizon deadline,
	// so a single stepUntil(deadline) drains the lifetime.
	_, err := e.stepUntil(st, sink, e.deadline, events)
	return err
}

// deliverVote records a vote through the sink and updates engine state.
// The exposure deadline for the voter's fans is computed after the sink
// call so that the vote that triggers promotion already exposes fans
// under the longer post-promotion deadline. A sink rejection with
// digg.ErrAlreadyVoted is tolerated: in live mode an external HTTP digg
// can beat the engine to a voter, in which case the engine just records
// the user as voted and moves on.
func (e *engine) deliverVote(st *digg.Story, sink voteSink, u digg.UserID, at digg.Minutes, mech Mechanism, events *[]VoteEvent) error {
	res, err := sink.castVote(u, at)
	if err != nil {
		if errors.Is(err, digg.ErrAlreadyVoted) {
			e.markVoted(u)
			return nil
		}
		return err
	}
	e.markVoted(u)
	e.absorbFans(u, at, exposureDeadline(st, e.queueDeadline, e.deadline))
	if events != nil {
		*events = append(*events, VoteEvent{
			Story: st.ID, Voter: u, At: at, Mechanism: mech,
			InNetwork: res.InNetwork, Promoted: res.Promoted, VoteCount: res.Votes,
		})
	}
	return nil
}
