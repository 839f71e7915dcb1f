package audit

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"adaudit/internal/store"
)

// The behavioral fold's bit-identity oracle: the map-of-slices fold the
// slot-indexed layout replaced, kept here as the reference, must agree
// with BehaviorFromState to the last float bit over seeded random
// states.

// refBehaviorState is the replaced layout: per-user timestamps and
// per-user / per-publisher slot lists keyed by string.
type refBehaviorState struct {
	Times       map[string][]time.Time
	UserSlots   map[string][]int
	PubSlots    map[string][]int
	Exposures   []float64
	VisMeasured []bool
	VisFrac     []float64
	UserConvs   map[string]int
	UserDC      map[string]bool
}

func refCadenceCV(ts []time.Time) float64 {
	if len(ts) < 3 {
		return math.Inf(1)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].Before(ts[j]) })
	n := float64(len(ts) - 1)
	var sum float64
	for i := 1; i < len(ts); i++ {
		sum += float64(ts[i].Sub(ts[i-1]))
	}
	mean := sum / n
	if mean == 0 {
		return 0
	}
	var sq float64
	for i := 1; i < len(ts); i++ {
		d := float64(ts[i].Sub(ts[i-1])) - mean
		sq += d * d
	}
	return math.Sqrt(sq/n) / mean
}

func refDegenerate(s refBehaviorState, slots []int) bool {
	minE, maxE := math.Inf(1), math.Inf(-1)
	minF, maxF := math.Inf(1), math.Inf(-1)
	measured := false
	for _, sl := range slots {
		e := s.Exposures[sl]
		minE, maxE = math.Min(minE, e), math.Max(maxE, e)
		if s.VisMeasured[sl] {
			measured = true
			f := s.VisFrac[sl]
			minF, maxF = math.Min(minF, f), math.Max(maxF, f)
		}
	}
	if maxE-minE > BehaviorDegenerateEps {
		return false
	}
	return !(measured && maxF-minF > BehaviorDegenerateEps)
}

// refBehaviorFromState is the replaced fold, unchanged but for names.
func refBehaviorFromState(campaignID string, s refBehaviorState) BehaviorResult {
	res := BehaviorResult{
		CampaignID: campaignID,
		Users:      len(s.UserSlots),
		Publishers: len(s.PubSlots),
	}
	res.Impressions = len(s.Exposures)
	for user, slots := range s.UserSlots {
		if len(slots) < BehaviorMinImpressions {
			continue
		}
		res.UsersScored++
		if s.UserConvs[user] > 0 {
			continue
		}
		cv := refCadenceCV(s.Times[user])
		if !(cv <= BehaviorMaxCadenceCV) || !refDegenerate(s, slots) {
			continue
		}
		res.BotUsers = append(res.BotUsers, BotUser{
			UserKey: user, Impressions: len(slots), CadenceCV: cv, DataCenter: s.UserDC[user],
		})
	}
	sort.Slice(res.BotUsers, func(i, j int) bool {
		a, b := res.BotUsers[i], res.BotUsers[j]
		if a.Impressions != b.Impressions {
			return a.Impressions > b.Impressions
		}
		return a.UserKey < b.UserKey
	})
	for _, u := range res.BotUsers {
		res.BotImpressions += u.Impressions
		if !u.DataCenter {
			res.ResidentialBotUsers++
		}
	}
	threshold := ViewabilityThreshold.Seconds()
	for pub, slots := range s.PubSlots {
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
				Publisher: pub, Impressions: len(slots), Measured: measured,
				MeanVisibleFraction: mean, ViewableShare: vshare,
			})
		}
	}
	sort.Slice(res.InflatedPublishers, func(i, j int) bool {
		a, b := res.InflatedPublishers[i], res.InflatedPublishers[j]
		if a.Impressions != b.Impressions {
			return a.Impressions > b.Impressions
		}
		return a.Publisher < b.Publisher
	})
	for _, p := range res.InflatedPublishers {
		res.InflatedImpressions += p.Impressions
	}
	return res
}

// randomBehaviorStates builds one random campaign in both layouts.
// Users draw a kind that covers each branch of the fold: perfect
// timers (several with equal impression counts, so the result order
// falls to the key tie-break), repeated-timestamp (zero-gap) timers,
// users with fewer than three impressions, users never
// visibility-measured, converting timers, DC-caught timers and
// organic users. Stacked publishers sit at 1-px fractions and tie on
// impression counts too.
func randomBehaviorStates(rng *rand.Rand) (BehaviorState, refBehaviorState) {
	s := BehaviorState{UserConvs: map[string]int{}}
	ref := refBehaviorState{
		Times: map[string][]time.Time{}, UserSlots: map[string][]int{}, PubSlots: map[string][]int{},
		UserConvs: s.UserConvs, UserDC: map[string]bool{},
	}
	base := time.Unix(1_700_000_000, int64(rng.Intn(1e9)))
	nPubs := 1 + rng.Intn(12)
	var ims []store.Impression
	for u, nUsers := 0, 1+rng.Intn(30); u < nUsers; u++ {
		key := fmt.Sprintf("u%02d", u)
		kind := rng.Intn(7)
		n := BehaviorMinImpressions + rng.Intn(3) // equal counts are likely: ties
		if kind == 2 {
			n = 1 + rng.Intn(2) // fewer than three timestamps
		}
		gap := time.Duration(1+rng.Intn(120)) * time.Second
		if kind == 1 {
			gap = 0 // one repeated timestamp
		}
		exp := time.Duration(rng.Intn(4000)) * time.Millisecond
		frac := float64(rng.Intn(100)) / 400
		dc := "not-data-center"
		if kind == 5 {
			dc = "provider-db"
		}
		if kind == 4 {
			s.UserConvs[key] = 1 + rng.Intn(2)
		}
		for i := 0; i < n; i++ {
			im := store.Impression{
				UserKey: key, DataCenter: dc, Timestamp: base.Add(time.Duration(i) * gap),
				Exposure: exp, VisibilityMeasured: kind != 3, MaxVisibleFraction: frac,
			}
			if kind == 6 { // organic: irregular in every signal
				im.Timestamp = base.Add(time.Duration(rng.Int63n(int64(time.Hour))))
				im.Exposure = time.Duration(rng.Intn(6000)) * time.Millisecond
				im.VisibilityMeasured = rng.Intn(2) == 0
				im.MaxVisibleFraction = rng.Float64()
			}
			im.Publisher = fmt.Sprintf("p%02d.example", rng.Intn(nPubs))
			if rng.Intn(3) == 0 {
				im.Publisher = "stacked.example"
				im.Exposure = time.Duration(1000+rng.Intn(3000)) * time.Millisecond
				im.VisibilityMeasured = true
				im.MaxVisibleFraction = float64(rng.Intn(10)) / 100
			}
			ims = append(ims, im)
		}
	}
	rng.Shuffle(len(ims), func(i, j int) { ims[i], ims[j] = ims[j], ims[i] })
	for i := range ims {
		im := &ims[i]
		s.Add(im)
		slot := len(ref.Exposures)
		ref.Times[im.UserKey] = append(ref.Times[im.UserKey], time.Unix(0, im.Timestamp.UnixNano()))
		ref.UserSlots[im.UserKey] = append(ref.UserSlots[im.UserKey], slot)
		ref.PubSlots[im.Publisher] = append(ref.PubSlots[im.Publisher], slot)
		ref.Exposures = append(ref.Exposures, im.Exposure.Seconds())
		ref.VisMeasured = append(ref.VisMeasured, im.VisibilityMeasured)
		ref.VisFrac = append(ref.VisFrac, im.MaxVisibleFraction)
		if IsDataCenterVerdict(im.DataCenter) {
			ref.UserDC[im.UserKey] = true
		}
	}
	return s, ref
}

func TestBehaviorFoldMatchesMapReference(t *testing.T) {
	var bots, inflated, ties int
	for seed := int64(1); seed <= 300; seed++ {
		s, ref := randomBehaviorStates(rand.New(rand.NewSource(seed)))
		before := s.Clone()
		got := BehaviorFromState("c", s)
		want := refBehaviorFromState("c", ref)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: slot-indexed fold diverges from the map reference\n got: %+v\nwant: %+v", seed, got, want)
		}
		if !reflect.DeepEqual(s.Clone(), before) {
			t.Fatalf("seed %d: the fold modified the state it was given", seed)
		}
		bots += len(got.BotUsers)
		inflated += len(got.InflatedPublishers)
		for i := 1; i < len(got.BotUsers); i++ {
			if got.BotUsers[i].Impressions == got.BotUsers[i-1].Impressions {
				ties++
			}
		}
	}
	// The sweep must exercise the flagging and tie-break branches.
	if bots == 0 || inflated == 0 || ties == 0 {
		t.Fatalf("vacuous sweep: %d bots, %d inflated publishers, %d tied bot pairs", bots, inflated, ties)
	}
	t.Logf("%d bots (%d tied pairs), %d inflated publishers over 300 states", bots, ties, inflated)
}
