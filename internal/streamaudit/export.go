package streamaudit

import (
	"fmt"
	"maps"
	"time"

	"adaudit/internal/adnet"
	"adaudit/internal/audit"
	"adaudit/internal/semsim"
)

// Export is a self-contained, JSON-serialisable snapshot of an engine's
// incremental state — everything a merge layer needs to reconstruct the
// engine's report without the store it was folded from. The shard-merge
// tier ships one Export per collector shard over /api/live/export and
// unions them (internal/shardmerge) into a combined state whose report
// is deep-equal to a single-store FullAudit over the union of the
// shards' data.
//
// Each campaign carries its behavioral layout (audit.BehaviorState):
// slot-indexed slices in store insertion order, exactly as the engine
// maintains them; merging concatenates them in shard order so even
// order-sensitive float summation (stats.Summarize's mean) is
// bit-stable. UserOf and PubOf index the campaign's Users and Pubs
// dictionaries, which are local to the export: a merge remaps them
// through the merged dictionaries. The Figure 3 frequency groups are
// not shipped: NewStatic rebuilds them from each campaign's slot
// timestamps and user ids, and the aggregate Figure 1 publisher set
// from the campaigns' publisher dictionaries. Every float in the
// export round-trips JSON exactly (encoding/json emits the shortest
// representation that parses back to the same float64), so a report
// materialised from a decoded Export is byte-identical to one
// materialised in-process.
type Export struct {
	// Seq is the feed sequence the exporting engine had applied. A
	// merged export sums shard Seqs — a monotone progress indicator,
	// not a feed position.
	Seq int64 `json:"seq"`
	// Campaigns holds one entry per campaign the engine observed
	// (impressions or conversions).
	Campaigns map[string]*CampaignExport `json:"campaigns"`
}

// CampaignExport mirrors the engine's per-campaign aggregate state
// field for field (see state.go's campaignState and
// audit.BehaviorState for the semantics of each).
type CampaignExport struct {
	PubImps     map[string]int `json:"pub_imps,omitempty"`
	Clicks      int            `json:"clicks,omitempty"`
	Conversions int            `json:"conversions,omitempty"`
	FirstSeen   time.Time      `json:"first_seen"`
	LastSeen    time.Time      `json:"last_seen"`

	ImpRanks    []int `json:"imp_ranks,omitempty"`
	UnknownMeta int   `json:"unknown_meta,omitempty"`

	ViewableUB  int `json:"viewable_ub,omitempty"`
	Measured    int `json:"measured,omitempty"`
	MRCViewable int `json:"mrc_viewable,omitempty"`

	DCImps    int             `json:"dc_imps,omitempty"`
	ByVerdict map[string]int  `json:"by_verdict,omitempty"`
	IPSeen    map[string]bool `json:"ip_seen,omitempty"`
	PubSeen   map[string]bool `json:"pub_seen,omitempty"`
	DCPerPub  map[string]int  `json:"dc_per_pub,omitempty"`

	// The behavioral layout (dictionaries, slot-indexed fields, DC
	// flags and conversions), its fields inlined in the JSON object.
	audit.BehaviorState
}

// Validate checks what importing or merging an export relies on: no
// null campaign entry, every campaign's slot-indexed slices of one
// length, every dictionary id in range, and UserDC aligned with Users.
// A malformed export (a corrupt shard, or one from a build with another
// export format) fails here rather than panicking a report.
func (exp *Export) Validate() error {
	for id, ce := range exp.Campaigns {
		if ce == nil {
			return fmt.Errorf("streamaudit: export campaign %q is null", id)
		}
		n := len(ce.Exposures)
		if len(ce.VisMeasured) != n || len(ce.VisFrac) != n || len(ce.UserOf) != n || len(ce.PubOf) != n || len(ce.Times) != n {
			return fmt.Errorf("streamaudit: export campaign %q: slot-indexed lengths differ (exposures %d, vis_measured %d, vis_frac %d, user_of %d, pub_of %d, times %d)",
				id, n, len(ce.VisMeasured), len(ce.VisFrac), len(ce.UserOf), len(ce.PubOf), len(ce.Times))
		}
		if len(ce.UserDC) != len(ce.Users) {
			return fmt.Errorf("streamaudit: export campaign %q: %d user_dc flags for %d users", id, len(ce.UserDC), len(ce.Users))
		}
		if !idsInRange(ce.UserOf, len(ce.Users)) || !idsInRange(ce.PubOf, len(ce.Pubs)) {
			return fmt.Errorf("streamaudit: export campaign %q: dictionary id out of range", id)
		}
	}
	return nil
}

func idsInRange(ids []int32, n int) bool {
	for _, id := range ids {
		if id < 0 || int(id) >= n {
			return false
		}
	}
	return true
}

// Export deep-copies the engine's state into a Export. Safe for
// concurrent use; the engine keeps folding deltas afterwards.
func (e *Engine) Export() *Export {
	e.mu.Lock()
	defer e.mu.Unlock()

	out := &Export{
		Seq:       e.appliedSeq.Load(),
		Campaigns: make(map[string]*CampaignExport, len(e.st.campaigns)),
	}
	for id, cs := range e.st.campaigns {
		out.Campaigns[id] = exportCampaign(cs)
	}
	return out
}

func exportCampaign(cs *campaignState) *CampaignExport {
	return &CampaignExport{
		PubImps:       maps.Clone(cs.pubImps),
		Clicks:        cs.clicks,
		Conversions:   cs.conversions,
		FirstSeen:     cs.firstSeen,
		LastSeen:      cs.lastSeen,
		ImpRanks:      append([]int(nil), cs.impRanks...),
		UnknownMeta:   cs.unknownMeta,
		ViewableUB:    cs.viewableUB,
		Measured:      cs.measured,
		MRCViewable:   cs.mrcViewable,
		DCImps:        cs.dcImps,
		ByVerdict:     maps.Clone(cs.byVerdict),
		IPSeen:        maps.Clone(cs.ipSeen),
		PubSeen:       maps.Clone(cs.pubSeen),
		DCPerPub:      maps.Clone(cs.dcPerPub),
		BehaviorState: cs.beh.Clone(),
	}
}

// StaticConfig configures NewStatic — Config minus the store and feed
// machinery a static engine has no use for.
type StaticConfig struct {
	// Meta resolves publisher metadata. Required, and it must agree
	// with the shards' metadata source: the export carries rank/context
	// observations already folded against it.
	Meta audit.MetadataSource
	// Matcher, Keywords, Reports, Sellers: as in Config.
	Matcher  *semsim.Matcher
	Keywords map[string][]string
	Reports  map[string]*adnet.VendorReport
	Sellers  audit.SellerDirectory
}

// NewStatic builds a query-only engine over a decoded (typically
// merged) Export: Report, Summaries, LiveSummary and Audit work exactly
// as on a live engine, but there is no store and no change feed — the
// state is frozen at the export's cut. Drain, Run, CaughtUp and
// Staleness report the engine as permanently caught up. An export that
// fails Validate is rejected with an error.
func NewStatic(cfg StaticConfig, exp *Export) (*Engine, error) {
	if exp == nil {
		return nil, fmt.Errorf("streamaudit: static engine requires an export")
	}
	if cfg.Meta == nil {
		return nil, fmt.Errorf("streamaudit: static engine requires a metadata source")
	}
	m := cfg.Matcher
	if m == nil {
		m = semsim.NewMatcher(semsim.DefaultTaxonomy())
	}
	sellers := cfg.Sellers
	if sellers == nil {
		sellers = adnet.SellerRegistry{}
	}
	st, err := importState(exp)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		meta:      cfg.Meta,
		matcher:   m,
		keywords:  cfg.Keywords,
		reports:   cfg.Reports,
		sellers:   sellers,
		metaMemo:  map[string]metaEntry{},
		listeners: map[*Updates]struct{}{},
		st:        st,
	}
	e.tel.init(nil, e)
	e.appliedSeq.Store(exp.Seq)
	return e, nil
}

// importState reconstructs the engine's internal state from an export.
// recs stays empty: a static engine never applies merges.
func importState(exp *Export) (*state, error) {
	if err := exp.Validate(); err != nil {
		return nil, err
	}
	st := newState()
	for id, ce := range exp.Campaigns {
		cs := st.campaign(id)
		maps.Copy(cs.pubImps, ce.PubImps)
		cs.clicks = ce.Clicks
		cs.conversions = ce.Conversions
		cs.firstSeen = ce.FirstSeen
		cs.lastSeen = ce.LastSeen
		cs.impRanks = append([]int(nil), ce.ImpRanks...)
		cs.unknownMeta = ce.UnknownMeta
		cs.viewableUB = ce.ViewableUB
		cs.measured = ce.Measured
		cs.mrcViewable = ce.MRCViewable
		cs.dcImps = ce.DCImps
		maps.Copy(cs.byVerdict, ce.ByVerdict)
		maps.Copy(cs.ipSeen, ce.IPSeen)
		maps.Copy(cs.pubSeen, ce.PubSeen)
		maps.Copy(cs.dcPerPub, ce.DCPerPub)
		cs.beh = ce.BehaviorState.Clone()
		for _, p := range cs.beh.Pubs {
			st.allPubs[p] = struct{}{}
		}
		for sl, u := range cs.beh.UserOf {
			k := audit.FrequencyKey{CampaignID: id, UserKey: cs.beh.Users[u]}
			st.freq[k] = append(st.freq[k], time.Unix(0, cs.beh.Times[sl]))
		}
	}
	return st, nil
}

// Static reports whether the engine was built by NewStatic (no store,
// no feed).
func (e *Engine) Static() bool { return e.store == nil }
