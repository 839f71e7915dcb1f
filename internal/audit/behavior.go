package audit

import (
	"cmp"
	"maps"
	"math"
	"slices"
	"strings"
	"sync"

	"adaudit/internal/store"
)

// Behavioral bot scoring — fraud detection beyond IP metadata. The
// DC-IP cascade (Table 4) catches data-center automation, but bots
// routed through residential proxies present clean ipmeta. What they
// cannot fake cheaply is organic behavior: real users arrive on
// bursty, irregular schedules, dwell for wildly varying times, and
// occasionally convert. Fraud automation runs on a timer — fixed
// inter-impression cadence, fixed exposure, fixed visibility, zero
// conversions. The detector flags users whose whole behavioral
// signature is degenerate; every threshold is exported so the simtest
// oracle can compute expected flags independently from its shadow
// model.
const (
	// BehaviorMinImpressions is the minimum per-user impression count
	// before the cadence statistics mean anything.
	BehaviorMinImpressions = 5
	// BehaviorMaxCadenceCV is the flag threshold on the coefficient of
	// variation of a user's inter-arrival times. Organic arrivals are
	// approximately log-normal (CV near or above 1); a timer sits at 0.
	BehaviorMaxCadenceCV = 0.05
	// BehaviorDegenerateEps bounds the per-user exposure range (in
	// seconds) and visible-fraction range that still count as "no
	// variance".
	BehaviorDegenerateEps = 1e-9
)

// Placement-inflation thresholds: stacked/1-px placements keep ads
// "rendered" (long exposures) while almost no pixels are ever visible.
const (
	// InflationMinMeasured is the minimum visibility-measured
	// impressions per publisher before its mean fraction is scored.
	InflationMinMeasured = 5
	// InflationMaxMeanFraction flags publishers whose mean measured
	// visible fraction sits at 1-px levels.
	InflationMaxMeanFraction = 0.10
	// InflationMinViewableShare requires the exposure side of the
	// inflation: mostly "viewable" by time yet never on screen.
	InflationMinViewableShare = 0.5
)

// BotUser is one flagged user with its degenerate signature.
type BotUser struct {
	UserKey     string
	Impressions int
	// CadenceCV is the inter-arrival coefficient of variation that
	// tripped the flag.
	CadenceCV float64
	// DataCenter marks users the DC-IP cascade also caught; flagged
	// users without it are the residential-proxy population only this
	// detector sees.
	DataCenter bool
}

// InflatedPublisher is one flagged placement operator.
type InflatedPublisher struct {
	Publisher   string
	Impressions int
	Measured    int
	// MeanVisibleFraction is the mean measured visible-pixel fraction;
	// ViewableShare the share of impressions exposed >= 1 s.
	MeanVisibleFraction float64
	ViewableShare       float64
}

// BehaviorResult is the behavioral fraud dimension: per-user bot
// scoring plus per-publisher placement-inflation scoring.
type BehaviorResult struct {
	CampaignID string
	// Users counts distinct users; UsersScored those with enough
	// impressions to score.
	Users       int
	UsersScored int
	// BotUsers lists flagged users, most impressions first;
	// BotImpressions sums their impressions. ResidentialBotUsers
	// counts the flagged users the DC cascade did NOT catch.
	BotUsers            []BotUser
	BotImpressions      int
	ResidentialBotUsers int
	// Publishers counts distinct publishers; PublishersScored those
	// with enough measured impressions; InflatedPublishers the flagged
	// ones with InflatedImpressions their impression total.
	Publishers          int
	PublishersScored    int
	InflatedPublishers  []InflatedPublisher
	InflatedImpressions int
	// Impressions is the campaign's impression total, the denominator
	// of the share methods.
	Impressions int
}

// PctBotImpressions returns flagged users' share of the campaign's
// impressions.
func (r BehaviorResult) PctBotImpressions() float64 {
	if r.Impressions == 0 {
		return 0
	}
	return float64(r.BotImpressions) / float64(r.Impressions)
}

// PctInflatedImpressions returns flagged publishers' share of the
// campaign's impressions.
func (r BehaviorResult) PctInflatedImpressions() float64 {
	if r.Impressions == 0 {
		return 0
	}
	return float64(r.InflatedImpressions) / float64(r.Impressions)
}

// CadenceCV returns the coefficient of variation (stddev/mean) of the
// inter-arrival times of ts (unix nanoseconds), sorting ts in place. A
// single repeated timestamp (mean gap 0) returns 0 — maximally
// regular. Fewer than three timestamps return +Inf: no cadence is
// measurable.
func CadenceCV(ts []int64) float64 {
	if len(ts) < 3 {
		return math.Inf(1)
	}
	slices.Sort(ts)
	n := float64(len(ts) - 1)
	var sum float64
	for i := 1; i < len(ts); i++ {
		sum += float64(ts[i] - ts[i-1])
	}
	mean := sum / n
	if mean == 0 {
		return 0
	}
	var sq float64
	for i := 1; i < len(ts); i++ {
		d := float64(ts[i]-ts[i-1]) - mean
		sq += d * d
	}
	return math.Sqrt(sq/n) / mean
}

// BehaviorState is the per-campaign raw material of the behavioral
// dimension: one slot per impression in insertion order, with users
// and publishers interned into dictionaries. The batch auditor builds
// it in one store visit, the streaming engine maintains it across
// inserts and merges, and the shard export ships it. Merges
// overwrite a slot in place, so order-dependent float folds stay
// bit-identical between the paths.
type BehaviorState struct {
	// Users and Pubs are the dictionaries, in first-seen order; a
	// slot's UserOf and PubOf entries index them.
	Users []string `json:"users,omitempty"`
	Pubs  []string `json:"pubs,omitempty"`
	// UserOf, PubOf, Times (unix nanoseconds), Exposures (seconds),
	// VisMeasured and VisFrac are slot-indexed.
	UserOf      []int32   `json:"user_of,omitempty"`
	PubOf       []int32   `json:"pub_of,omitempty"`
	Times       []int64   `json:"times,omitempty"`
	Exposures   []float64 `json:"exposures,omitempty"`
	VisMeasured []bool    `json:"vis_measured,omitempty"`
	VisFrac     []float64 `json:"vis_frac,omitempty"`
	// UserDC is indexed by user id: users with at least one DC-verdict
	// impression.
	UserDC []bool `json:"user_dc,omitempty"`
	// UserConvs counts conversions per user key; a converting user
	// need not have impressions.
	UserConvs map[string]int `json:"user_convs,omitempty"`

	// userIdx and pubIdx map dictionary keys to ids for Add and Append,
	// built from the dictionaries on first use.
	userIdx, pubIdx map[string]int32
}

// intern returns key's id in the dictionary dict indexed by *idx,
// appending key if it is new.
func intern(dict *[]string, idx *map[string]int32, key string) int32 {
	if *idx == nil {
		*idx = make(map[string]int32, len(*dict))
		for i, k := range *dict {
			(*idx)[k] = int32(i)
		}
	}
	id, ok := (*idx)[key]
	if !ok {
		id = int32(len(*dict))
		(*idx)[key] = id
		*dict = append(*dict, key)
	}
	return id
}

// internUser interns a user key, keeping UserDC aligned with Users.
func (s *BehaviorState) internUser(key string) int32 {
	u := intern(&s.Users, &s.userIdx, key)
	if int(u) == len(s.UserDC) {
		s.UserDC = append(s.UserDC, false)
	}
	return u
}

// Add appends im as the next slot.
func (s *BehaviorState) Add(im *store.Impression) {
	u := s.internUser(im.UserKey)
	s.UserOf = append(s.UserOf, u)
	s.PubOf = append(s.PubOf, intern(&s.Pubs, &s.pubIdx, im.Publisher))
	s.Times = append(s.Times, im.Timestamp.UnixNano())
	s.Exposures = append(s.Exposures, im.Exposure.Seconds())
	s.VisMeasured = append(s.VisMeasured, im.VisibilityMeasured)
	s.VisFrac = append(s.VisFrac, im.MaxVisibleFraction)
	if IsDataCenterVerdict(im.DataCenter) {
		s.UserDC[u] = true
	}
}

// Append concatenates o's slots after s's — the shard merge. o's
// dictionary ids are remapped to s's, whose dictionaries gain o's new
// keys; DC flags OR and conversion counts add per user. Every id in o
// must be in range and its UserDC aligned with its Users.
func (s *BehaviorState) Append(o *BehaviorState) {
	users := make([]int32, len(o.Users))
	for i, k := range o.Users {
		users[i] = s.internUser(k)
		s.UserDC[users[i]] = s.UserDC[users[i]] || o.UserDC[i]
	}
	for _, u := range o.UserOf {
		s.UserOf = append(s.UserOf, users[u])
	}
	pubs := make([]int32, len(o.Pubs))
	for i, k := range o.Pubs {
		pubs[i] = intern(&s.Pubs, &s.pubIdx, k)
	}
	for _, p := range o.PubOf {
		s.PubOf = append(s.PubOf, pubs[p])
	}
	s.Times = append(s.Times, o.Times...)
	s.Exposures = append(s.Exposures, o.Exposures...)
	s.VisMeasured = append(s.VisMeasured, o.VisMeasured...)
	s.VisFrac = append(s.VisFrac, o.VisFrac...)
	for k, n := range o.UserConvs {
		if s.UserConvs == nil {
			s.UserConvs = map[string]int{}
		}
		s.UserConvs[k] += n
	}
}

// Clone returns a deep copy of s.
func (s *BehaviorState) Clone() BehaviorState {
	return BehaviorState{
		Users: slices.Clone(s.Users), Pubs: slices.Clone(s.Pubs),
		UserOf: slices.Clone(s.UserOf), PubOf: slices.Clone(s.PubOf), Times: slices.Clone(s.Times),
		Exposures: slices.Clone(s.Exposures), VisMeasured: slices.Clone(s.VisMeasured),
		VisFrac: slices.Clone(s.VisFrac), UserDC: slices.Clone(s.UserDC),
		UserConvs: maps.Clone(s.UserConvs),
	}
}

// behaviorScratch is the recycled working set of the behavioral
// dimension: the batch path's whole state, and the fold's grouping
// buffers. Only the results escape a call, and they hold nothing but
// copied scalars and dictionary strings.
type behaviorScratch struct {
	state BehaviorState
	start []int32 // group offsets into order, len(groups)+1
	order []int32 // slots grouped by dictionary id
	ts    []int64 // one user's timestamps
}

var behaviorPool = sync.Pool{New: func() any { return new(behaviorScratch) }}

// release empties the scratch, dropping its references to dictionary
// strings, and returns it to the pool.
func (sc *behaviorScratch) release() {
	s := &sc.state
	clear(s.Users)
	clear(s.Pubs)
	clear(s.UserConvs)
	clear(s.userIdx)
	clear(s.pubIdx)
	*s = BehaviorState{
		Users: s.Users[:0], Pubs: s.Pubs[:0], UserOf: s.UserOf[:0], PubOf: s.PubOf[:0],
		Times: s.Times[:0], Exposures: s.Exposures[:0], VisMeasured: s.VisMeasured[:0],
		VisFrac: s.VisFrac[:0], UserDC: s.UserDC[:0], UserConvs: s.UserConvs,
		userIdx: s.userIdx, pubIdx: s.pubIdx,
	}
	behaviorPool.Put(sc)
}

// Behavior runs the behavioral fraud analysis for one campaign (""
// for all campaigns together).
func (a *Auditor) Behavior(campaignID string) BehaviorResult {
	sc := behaviorPool.Get().(*behaviorScratch)
	defer sc.release()
	s := &sc.state
	if s.userIdx == nil {
		n := a.impressionCount(campaignID)
		s.userIdx, s.pubIdx, s.UserConvs = make(map[string]int32, n), make(map[string]int32, n), map[string]int{}
	}
	a.visitImpressions(campaignID, func(im *store.Impression) bool {
		s.Add(im)
		return true
	})
	for _, c := range a.Store.Conversions(campaignID) {
		s.UserConvs[c.UserKey]++
	}
	return sc.fold(campaignID, s)
}

// BehaviorFromState materializes the behavioral result — the shared
// fold behind the batch analysis and the streaming engine's view. The
// state is only read.
func BehaviorFromState(campaignID string, s BehaviorState) BehaviorResult {
	sc := behaviorPool.Get().(*behaviorScratch)
	defer sc.release()
	return sc.fold(campaignID, &s)
}

// group counting-sorts the slots by their dictionary id (ids index a
// dictionary of k keys): afterwards the slots of id i are
// sc.order[sc.start[i]:sc.start[i+1]], in ascending slot order.
func (sc *behaviorScratch) group(ids []int32, k int) {
	start := slices.Grow(sc.start[:0], k+1)[:k+1]
	clear(start)
	for _, id := range ids {
		start[id+1]++
	}
	for i := 1; i <= k; i++ {
		start[i] += start[i-1]
	}
	order := slices.Grow(sc.order[:0], len(ids))[:len(ids)]
	for slot, id := range ids {
		order[start[id]] = int32(slot)
		start[id]++
	}
	// Filling advanced each offset to the next group's; shift back.
	copy(start[1:], start[:k])
	start[0] = 0
	sc.start, sc.order = start, order
}

func (sc *behaviorScratch) fold(campaignID string, s *BehaviorState) BehaviorResult {
	res := BehaviorResult{
		CampaignID:  campaignID,
		Users:       len(s.Users),
		Publishers:  len(s.Pubs),
		Impressions: len(s.Exposures),
	}

	sc.group(s.UserOf, len(s.Users))
	for u := range s.Users {
		slots := sc.order[sc.start[u]:sc.start[u+1]]
		if len(slots) < BehaviorMinImpressions {
			continue
		}
		res.UsersScored++
		if s.UserConvs[s.Users[u]] > 0 {
			continue // converting users are humans whatever their cadence
		}
		ts := sc.ts[:0]
		for _, sl := range slots {
			ts = append(ts, s.Times[sl])
		}
		sc.ts = ts
		cv := CadenceCV(ts)
		if !(cv <= BehaviorMaxCadenceCV) {
			continue
		}
		if !degenerateSlots(s, slots) {
			continue
		}
		res.BotUsers = append(res.BotUsers, BotUser{
			UserKey:     s.Users[u],
			Impressions: len(slots),
			CadenceCV:   cv,
			DataCenter:  s.UserDC[u],
		})
	}
	slices.SortFunc(res.BotUsers, func(a, b BotUser) int {
		if a.Impressions != b.Impressions {
			return cmp.Compare(b.Impressions, a.Impressions)
		}
		return strings.Compare(a.UserKey, b.UserKey)
	})
	for _, u := range res.BotUsers {
		res.BotImpressions += u.Impressions
		if !u.DataCenter {
			res.ResidentialBotUsers++
		}
	}

	threshold := ViewabilityThreshold.Seconds()
	sc.group(s.PubOf, len(s.Pubs))
	for p := range s.Pubs {
		slots := sc.order[sc.start[p]:sc.start[p+1]]
		measured, viewable := 0, 0
		var fracSum float64
		for _, sl := range slots {
			if s.Exposures[sl] >= threshold {
				viewable++
			}
			if s.VisMeasured[sl] {
				measured++
				fracSum += s.VisFrac[sl]
			}
		}
		if measured < InflationMinMeasured {
			continue
		}
		res.PublishersScored++
		mean := fracSum / float64(measured)
		vshare := float64(viewable) / float64(len(slots))
		if mean <= InflationMaxMeanFraction && vshare >= InflationMinViewableShare {
			res.InflatedPublishers = append(res.InflatedPublishers, InflatedPublisher{
				Publisher:           s.Pubs[p],
				Impressions:         len(slots),
				Measured:            measured,
				MeanVisibleFraction: mean,
				ViewableShare:       vshare,
			})
		}
	}
	slices.SortFunc(res.InflatedPublishers, func(a, b InflatedPublisher) int {
		if a.Impressions != b.Impressions {
			return cmp.Compare(b.Impressions, a.Impressions)
		}
		return strings.Compare(a.Publisher, b.Publisher)
	})
	for _, p := range res.InflatedPublishers {
		res.InflatedImpressions += p.Impressions
	}
	return res
}

// degenerateSlots reports whether the user's mutable per-impression
// signals show no variance at all: exposure range within epsilon, and
// — among visibility-measured impressions, if any — visible-fraction
// range within epsilon.
func degenerateSlots(s *BehaviorState, slots []int32) bool {
	minE, maxE := math.Inf(1), math.Inf(-1)
	minF, maxF := math.Inf(1), math.Inf(-1)
	measured := false
	for _, sl := range slots {
		e := s.Exposures[sl]
		if e < minE {
			minE = e
		}
		if e > maxE {
			maxE = e
		}
		if s.VisMeasured[sl] {
			measured = true
			f := s.VisFrac[sl]
			if f < minF {
				minF = f
			}
			if f > maxF {
				maxF = f
			}
		}
	}
	if maxE-minE > BehaviorDegenerateEps {
		return false
	}
	if measured && maxF-minF > BehaviorDegenerateEps {
		return false
	}
	return true
}
