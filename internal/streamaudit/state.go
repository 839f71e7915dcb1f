package streamaudit

import (
	"fmt"
	"time"

	"adaudit/internal/audit"
	"adaudit/internal/store"
)

// state is the engine's aggregate view of the store: everything the
// five audit dimensions (plus the live summaries) need, maintained
// per-event. Nothing here re-reads the store — a resync rebuilds the
// whole struct from the snapshot prime instead.
type state struct {
	campaigns map[string]*campaignState
	// allPubs is the cross-campaign publisher set backing the
	// aggregate Figure 1 Venn (audit.BrandSafetyAggregate's audited
	// side).
	allPubs map[string]struct{}
	// freq groups impression timestamps per (campaign, user) for the
	// Figure 3 frequency analysis.
	freq map[audit.FrequencyKey][]time.Time
	// recs maps store record ID to where its mutable fields live, so
	// exposure merges update in place.
	recs map[int64]recRef
}

type recRef struct {
	cs   *campaignState
	slot int
}

// campaignState is one campaign's incremental aggregates. Each field
// mirrors state the batch analyses derive by rescanning; the Report
// path feeds them through the same materializers the batch path uses.
type campaignState struct {
	// pubImps counts impressions per publisher: the brand-safety
	// audited set (its keys), the context match denominators, and the
	// live top-publisher view.
	pubImps map[string]int
	// clicks, firstSeen/lastSeen and conversions back the live summary
	// view, as does beh.Users, the campaign's user dictionary.
	clicks      int
	conversions int
	firstSeen   time.Time
	lastSeen    time.Time

	// Popularity: ranks of known-metadata impressions in insertion
	// order (matching the batch visit order), plus the unknown-meta
	// impression count shared with the context dimension.
	impRanks    []int
	unknownMeta int

	// Viewability: the counters derived from the per-impression
	// exposure seconds, which live in beh.Exposures (slot-indexed so
	// merges overwrite in place; insertion order keeps even float
	// summation identical to the batch path).
	viewableUB  int
	measured    int
	mrcViewable int

	// Fraud: exactly the maps the batch analysis folds over.
	dcImps    int
	byVerdict map[string]int
	ipSeen    map[string]bool
	pubSeen   map[string]bool
	dcPerPub  map[string]int

	// Behavior: the slot-indexed layout the batch auditor and the
	// shard export share, read by the shared behavioral fold as is.
	beh audit.BehaviorState
}

func newState() *state {
	return &state{
		campaigns: map[string]*campaignState{},
		allPubs:   map[string]struct{}{},
		freq:      map[audit.FrequencyKey][]time.Time{},
		recs:      map[int64]recRef{},
	}
}

// campaign returns (creating if needed) one campaign's state.
func (s *state) campaign(id string) *campaignState {
	cs := s.campaigns[id]
	if cs == nil {
		cs = &campaignState{
			pubImps:   map[string]int{},
			byVerdict: map[string]int{},
			ipSeen:    map[string]bool{},
			pubSeen:   map[string]bool{},
			dcPerPub:  map[string]int{},
			beh:       audit.BehaviorState{UserConvs: map[string]int{}},
		}
		s.campaigns[id] = cs
	}
	return cs
}

// applyInsert folds one new impression into every dimension. Also used
// by the snapshot prime (a primed record is just an insert whose
// merges already happened).
func (s *state) applyInsert(e *Engine, im *store.Impression) {
	done := e.tel.sectionTimer()
	cs := s.campaign(im.CampaignID)

	// Publisher/user/summary state (brand safety + context + live).
	cs.pubImps[im.Publisher]++
	s.allPubs[im.Publisher] = struct{}{}
	cs.clicks += im.Clicks
	if cs.firstSeen.IsZero() || im.Timestamp.Before(cs.firstSeen) {
		cs.firstSeen = im.Timestamp
	}
	if im.Timestamp.After(cs.lastSeen) {
		cs.lastSeen = im.Timestamp
	}
	done(dimPublisher)

	// Popularity.
	if meta, ok := e.lookupMeta(im.Publisher); ok {
		cs.impRanks = append(cs.impRanks, meta.Rank)
	} else {
		cs.unknownMeta++
	}
	done(dimPopularity)

	// Viewability.
	s.recs[im.ID] = recRef{cs: cs, slot: len(cs.beh.Exposures)}
	if im.Exposure >= audit.ViewabilityThreshold {
		cs.viewableUB++
	}
	if im.VisibilityMeasured {
		cs.measured++
		if im.Exposure >= audit.ViewabilityThreshold && im.MaxVisibleFraction >= 0.5 {
			cs.mrcViewable++
		}
	}
	done(dimViewability)

	// Fraud.
	isDC := audit.IsDataCenterVerdict(im.DataCenter)
	if isDC {
		cs.dcImps++
		cs.byVerdict[im.DataCenter]++
		cs.dcPerPub[im.Publisher]++
	}
	cs.ipSeen[im.IPPseudonym] = cs.ipSeen[im.IPPseudonym] || isDC
	cs.pubSeen[im.Publisher] = cs.pubSeen[im.Publisher] || isDC
	done(dimFraud)

	// Behavior (and the viewability samples): the impression's slot.
	cs.beh.Add(im)
	done(dimBehavior)

	// Frequency.
	k := audit.FrequencyKey{CampaignID: im.CampaignID, UserKey: im.UserKey}
	s.freq[k] = append(s.freq[k], im.Timestamp)
	done(dimFrequency)
}

// applyMerge folds an exposure update into the dimensions that read
// the mutable fields (viewability and the live interaction counters):
// the event carries both the pre- and post-merge values, so the old
// contribution is retracted exactly. Timestamps, publisher and the
// data-center verdict are immutable after insert, so frequency,
// popularity, brand safety and fraud are untouched by design.
func (s *state) applyMerge(e *Engine, ev *store.FeedEvent) error {
	ref, ok := s.recs[ev.Im.ID]
	if !ok {
		return fmt.Errorf("streamaudit: merge for unknown record %d", ev.Im.ID)
	}
	done := e.tel.sectionTimer()
	cs := ref.cs
	prev, now := &ev.Prev, &ev.Im

	cs.beh.Exposures[ref.slot] = now.Exposure.Seconds()
	cs.viewableUB += b2i(now.Exposure >= audit.ViewabilityThreshold) -
		b2i(prev.Exposure >= audit.ViewabilityThreshold)
	cs.measured += b2i(now.VisibilityMeasured) - b2i(prev.VisibilityMeasured)
	cs.mrcViewable += b2i(mrcViewable(now.VisibilityMeasured, now.Exposure, now.MaxVisibleFraction)) -
		b2i(mrcViewable(prev.VisibilityMeasured, prev.Exposure, prev.MaxVisibleFraction))
	done(dimViewability)

	cs.beh.VisMeasured[ref.slot] = now.VisibilityMeasured
	cs.beh.VisFrac[ref.slot] = now.MaxVisibleFraction
	done(dimBehavior)

	cs.clicks += now.Clicks - prev.Clicks
	done(dimPublisher)
	return nil
}

// applyConversion counts one conversion for the live summary view and
// the behavioral bot score (converting users are never flagged).
func (s *state) applyConversion(c *store.Conversion) {
	cs := s.campaign(c.CampaignID)
	cs.conversions++
	cs.beh.UserConvs[c.UserKey]++
}

func mrcViewable(measured bool, exp time.Duration, maxVis float64) bool {
	return measured && exp >= audit.ViewabilityThreshold && maxVis >= 0.5
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
