// Package agent implements the stochastic user-behaviour model that
// drives the simulated Digg platform.
//
// Section 5.1 of the paper proposes two mechanisms for the spread of
// interest in a story:
//
//   - network-based: fans of the submitter and of prior voters see the
//     story through the Friends interface and vote on it;
//   - interest-based: users unconnected to prior voters independently
//     discover the story (upcoming queue, front page, external links)
//     with a probability that grows with how interesting the story is.
//
// The network channel is modeled as a one-shot exposure: when a user
// enters a story's Friends-interface audience they browse the interface
// once after a random delay and either vote or move on. This keeps the
// social cascade a (sub)critical branching process, matching the small
// cascade sizes of Fig. 3(b), instead of letting every fan vote with
// probability one given enough time.
//
// While a story sits in the upcoming queue it gathers votes slowly;
// once promoted to the front page it is exposed to the whole audience
// and gathers votes quickly, with the rate decaying with a half-life of
// about a day following Wu & Huberman's novelty decay — reproducing the
// vote time series of Fig. 1.
//
// # Event-driven scheduler
//
// The simulator is event-driven rather than time-stepped: instead of
// visiting every minute of the multi-day horizon it jumps directly
// between the events that can change a story's state. Pending
// Friends-interface exposures sit in a minute-bucketed timing wheel
// (one bucket per minute offset from submission, with a bitmap over
// occupied slots), and interest-based discovery votes are drawn by
// sampling exponential inter-arrival gaps — a homogeneous process with
// the quadratic-interest rate while the story is in the queue, and a
// thinned process against the decaying novelty envelope after
// promotion. Both match the arrival intensity of the per-minute
// Poisson model they replace. Per-story voter and audience sets are
// one-bit-per-user bitsets reused across stories (see engine.go),
// so simulating a story allocates no per-story maps.
//
// Two front-ends share the engine: Simulator drives a digg.Platform
// (votes flow through Platform.Digg, so promotion and visibility stay
// authoritative), while Runner simulates a story against the bare
// graph and a promotion policy with no platform at all — the
// allocation-free path that corpus generation fans out across workers
// (see internal/dataset).
package agent

import (
	"errors"
	"fmt"

	"diggsim/internal/digg"
	"diggsim/internal/rng"
)

// Mechanism tags which behavioural channel produced a vote. Analysis
// code must not use it (the paper infers spread from the graph alone);
// it exists for tests and ablations.
type Mechanism uint8

const (
	// MechanismSubmit marks the submitter's implicit vote.
	MechanismSubmit Mechanism = iota
	// MechanismNetwork marks votes by Friends-interface audience members.
	MechanismNetwork
	// MechanismQueue marks independent discoveries in the upcoming queue.
	MechanismQueue
	// MechanismFrontPage marks votes from front-page browsing.
	MechanismFrontPage
)

// String returns the mechanism name.
func (m Mechanism) String() string {
	switch m {
	case MechanismSubmit:
		return "submit"
	case MechanismNetwork:
		return "network"
	case MechanismQueue:
		return "queue"
	case MechanismFrontPage:
		return "frontpage"
	default:
		return fmt.Sprintf("mechanism(%d)", uint8(m))
	}
}

// VoteEvent is one simulated vote with its generating mechanism.
type VoteEvent struct {
	Story     digg.StoryID
	Voter     digg.UserID
	At        digg.Minutes
	Mechanism Mechanism
	InNetwork bool
	// Promoted records whether this vote triggered the story's
	// promotion to the front page.
	Promoted bool
	// VoteCount is the story's vote count including this vote — the
	// authoritative running count even when an external live vote
	// interleaves with the engine's.
	VoteCount int
}

// Config holds the behaviour-model parameters. All rates are per
// minute. NewConfig returns the calibrated defaults used throughout the
// reproduction.
type Config struct {
	// ExposureDelayMean is the mean delay (minutes) between a user
	// entering a story's Friends-interface audience and browsing the
	// interface. Delays are exponential; exposures that would land
	// beyond the horizon never happen (users stop seeing old activity
	// after Digg's 48-hour window anyway).
	ExposureDelayMean float64
	// FanVoteScale is the overall probability scale of a fan voting
	// when they see a friend's story. Together with the mean fan count
	// it sets the branching factor of the social cascade and must keep
	// it subcritical.
	FanVoteScale float64
	// FanInterestFloor is the interest-independent component of a fan's
	// vote decision: an exposed fan votes with probability
	// FanVoteScale * (FanInterestFloor + (1-FanInterestFloor)*interest).
	// A high floor encodes the paper's observation that fans vote on
	// friends' stories largely out of social courtesy — which is
	// exactly what makes in-network votes a weak quality signal.
	FanInterestFloor float64
	// QueueDiscoveryRate scales independent discovery while the story
	// is in the upcoming queue: votes/minute = QueueDiscoveryRate *
	// interest^2. The quadratic makes independent early votes a strong
	// quality signal, per §5.1.
	QueueDiscoveryRate float64
	// FrontPageRate scales front-page voting immediately after
	// promotion: votes/minute = FrontPageRate * interest at the moment
	// of promotion.
	FrontPageRate float64
	// QueueLifetime is how long a story stays discoverable in the
	// upcoming queue. Digg's promotion algorithm examines the first 24
	// hours; stories not promoted by then scroll out of the queue and
	// stop gathering votes, which is why the paper saw no upcoming
	// story with more than 42 votes.
	QueueLifetime digg.Minutes
	// NoveltyHalfLife is the decay half-life of the front-page rate
	// (Wu & Huberman measured about a day).
	NoveltyHalfLife digg.Minutes
	// Horizon is how long each story is simulated after submission.
	Horizon digg.Minutes
	// MaxVotes stops a story early once it has this many votes
	// (0 = unlimited); a safety valve for extreme parameter choices.
	MaxVotes int
}

// NewConfig returns parameters calibrated so that the synthetic corpus
// matches the marginals reported in the paper (see internal/dataset).
func NewConfig() Config {
	// With a mean fan count around 5 (the generated 20k-user graph),
	// FanVoteScale 0.1 keeps the social cascade's branching factor in
	// the subcritical 0.25-0.5 range, matching the small cascades of
	// Fig. 3(b) while still letting a vote by a heavily fanned user
	// trigger a visible in-network burst (the paper's kevinrose
	// anecdote).
	return Config{
		ExposureDelayMean:  240,
		FanVoteScale:       0.1,
		FanInterestFloor:   0.5,
		QueueDiscoveryRate: 0.08,
		FrontPageRate:      0.8,
		QueueLifetime:      digg.Day,
		NoveltyHalfLife:    digg.Day,
		Horizon:            5 * digg.Day,
		MaxVotes:           6000,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.ExposureDelayMean <= 0:
		return errors.New("agent: ExposureDelayMean must be > 0")
	case c.FanVoteScale < 0 || c.FanVoteScale > 1:
		return errors.New("agent: FanVoteScale must be in [0, 1]")
	case c.FanInterestFloor < 0 || c.FanInterestFloor > 1:
		return errors.New("agent: FanInterestFloor must be in [0, 1]")
	case c.QueueDiscoveryRate < 0:
		return errors.New("agent: QueueDiscoveryRate must be >= 0")
	case c.FrontPageRate < 0:
		return errors.New("agent: FrontPageRate must be >= 0")
	case c.QueueLifetime <= 0:
		return errors.New("agent: QueueLifetime must be > 0")
	case c.NoveltyHalfLife <= 0:
		return errors.New("agent: NoveltyHalfLife must be > 0")
	case c.Horizon <= 0:
		return errors.New("agent: Horizon must be > 0")
	case c.MaxVotes < 0:
		return errors.New("agent: MaxVotes must be >= 0")
	}
	return nil
}

// FanVoteProb returns the probability that an exposed fan votes on a
// story with the given intrinsic interest.
func (c Config) FanVoteProb(interest float64) float64 {
	return c.FanVoteScale * (c.FanInterestFloor + (1-c.FanInterestFloor)*interest)
}

// Simulator drives one Platform with the behaviour model.
type Simulator struct {
	cfg      Config
	platform *digg.Platform
	eng      *engine
}

// NewSimulator creates a simulator over the platform. It returns an
// error if the configuration is invalid.
func NewSimulator(p *digg.Platform, cfg Config, r *rng.RNG) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Simulator{cfg: cfg, platform: p, eng: newEngine(p.Graph, cfg, r)}, nil
}

// Platform returns the platform the simulator drives.
func (s *Simulator) Platform() *digg.Platform { return s.platform }

// Config returns the simulator's behaviour parameters.
func (s *Simulator) Config() Config { return s.cfg }

// platformSink routes engine votes through Store.Digg, keeping the
// platform's visibility and promotion state authoritative.
type platformSink struct {
	p  digg.Store
	st *digg.Story
}

func (ps platformSink) castVote(u digg.UserID, t digg.Minutes) (digg.DiggResult, error) {
	res, err := ps.p.Digg(ps.st.ID, u, t)
	if err != nil {
		return digg.DiggResult{}, fmt.Errorf("agent: vote by %d on story %d: %w", u, ps.st.ID, err)
	}
	return res, nil
}

// RunStory submits one story by submitter at submitTime with the given
// intrinsic interest and simulates its lifetime with the event-driven
// scheduler. It returns the story and the full event log (the
// submitter's implicit vote is event 0).
func (s *Simulator) RunStory(submitter digg.UserID, title string, interest float64, submitTime digg.Minutes) (*digg.Story, []VoteEvent, error) {
	if interest < 0 || interest > 1 {
		return nil, nil, errors.New("agent: interest must be in [0, 1]")
	}
	st, err := s.platform.Submit(submitter, title, interest, submitTime)
	if err != nil {
		return nil, nil, err
	}
	events := []VoteEvent{{
		Story: st.ID, Voter: submitter, At: submitTime,
		Mechanism: MechanismSubmit, InNetwork: false,
	}}
	if err := s.eng.run(st, platformSink{p: s.platform, st: st}, interest, &events); err != nil {
		return nil, nil, err
	}
	return st, events, nil
}
