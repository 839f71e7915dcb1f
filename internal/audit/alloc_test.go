package audit

import (
	"fmt"
	"testing"
	"time"

	"adaudit/internal/adnet"
	"adaudit/internal/store"
)

// The behavioral and pooling folds recycle their working set, so their
// allocations must not grow with the campaign: only the flagged results
// are allocated per call. These pin that at 1k and 16k impressions
// (report rows), the way FullAudit runs them — repeatedly, pool warm.

// allocSizes are the two synthetic campaign sizes compared.
var allocSizes = [2]int{1 << 10, 1 << 14}

// Allocation bounds: the growth from the small to the large input, and
// the per-call ceiling before the flagged results are added.
const (
	maxAllocGrowth = 16
	maxAllocsFixed = 200
)

// syntheticBehaviorStore fills a store with one campaign of n
// impressions: about 8 per user and 16 per publisher, one user in 32 a
// perfect timer on fixed exposure and visibility (flagged unless it converts), half of
// all impressions visibility-measured, one user in 16 behind a data
// center, and one conversion per hundred impressions.
func syntheticBehaviorStore(t testing.TB, n int) *store.Store {
	t.Helper()
	st := store.New()
	for i := 0; i < n; i++ {
		u := i % (n / 8)
		user := fmt.Sprintf("user-%05d", u)
		pub := fmt.Sprintf("pub%05d.example", i%(n/16))
		at := base.Add(time.Duration(i*7919%100_003) * time.Second)
		exp := time.Duration(500+i*31%4000) * time.Millisecond
		frac := float64(i%7) / 70
		if u%32 == 0 {
			at = base.Add(time.Duration(i/(n/8)) * 45 * time.Second)
			exp, frac = 2*time.Second, 0.35
		}
		dc := "not-data-center"
		if u%16 == 1 {
			dc = "provider-db"
		}
		_, err := st.Insert(store.Impression{
			CampaignID: "c", CreativeID: "cr", Publisher: pub,
			PageURL: "http://" + pub + "/", UserAgent: "UA",
			IPPseudonym: "ip-" + user, UserKey: user, DataCenter: dc,
			Timestamp: at, Exposure: exp,
			VisibilityMeasured: i%2 == 0, MaxVisibleFraction: frac,
		})
		if err != nil {
			t.Fatal(err)
		}
		if i%100 == 0 {
			if _, err := st.InsertConversion(store.Conversion{
				CampaignID: "c", UserKey: user, Action: "purchase", Timestamp: at,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return st
}

// syntheticReport builds a vendor report of n rows: mostly direct
// sellers, one row in 8 on the exchange, one in 16 unattributed, and
// one in 4 booked under one of a handful of pool sellers spanning many
// owner groups.
func syntheticReport(n int) *adnet.VendorReport {
	rep := &adnet.VendorReport{CampaignID: "c", Rows: make([]adnet.ReportRow, n)}
	for i := range rep.Rows {
		pub := fmt.Sprintf("pub%05d.example", i)
		seller := adnet.DirectSellerID(pub)
		switch {
		case i%8 == 1:
			seller = adnet.ExchangeSellerID
		case i%16 == 2:
			seller = ""
		case i%4 == 3:
			seller = fmt.Sprintf("pool-%d", i%5)
		}
		rep.Rows[i] = adnet.ReportRow{Publisher: pub, Impressions: int64(1 + i%97), SellerID: seller}
	}
	return rep
}

// checkAllocScaling asserts the per-size allocation counts stay under
// the fixed ceiling plus each size's flagged results, and do not grow
// with the input.
func checkAllocScaling(t *testing.T, name string, allocs [2]float64, flagged [2]int) {
	t.Helper()
	t.Logf("%s: %.0f allocs at %d (%d flagged), %.0f at %d (%d flagged)",
		name, allocs[0], allocSizes[0], flagged[0], allocs[1], allocSizes[1], flagged[1])
	for i, n := range allocSizes {
		if allocs[i] > float64(maxAllocsFixed+flagged[i]) {
			t.Errorf("%s at %d: %.0f allocs per call, want <= %d + %d flagged",
				name, n, allocs[i], maxAllocsFixed, flagged[i])
		}
	}
	if growth := allocs[1] - allocs[0]; growth > maxAllocGrowth {
		t.Errorf("%s allocations grow with input: %.0f at %d, %.0f at %d (growth %.0f > %d)",
			name, allocs[0], allocSizes[0], allocs[1], allocSizes[1], growth, maxAllocGrowth)
	}
}

func TestBehaviorAllocsDoNotScale(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops objects at random under -race")
	}
	var allocs [2]float64
	var flagged [2]int
	for i, n := range allocSizes {
		a := newAuditor(t, syntheticBehaviorStore(t, n), fakeMeta{})
		res := a.Behavior("c")
		if len(res.BotUsers) == 0 || res.Impressions != n {
			t.Fatalf("synthetic campaign of %d: %d bots over %d impressions, want some bots", n, len(res.BotUsers), res.Impressions)
		}
		flagged[i] = len(res.BotUsers) + len(res.InflatedPublishers)
		allocs[i] = testing.AllocsPerRun(20, func() { a.Behavior("c") })
	}
	checkAllocScaling(t, "Behavior", allocs, flagged)
}

func TestPoolingAllocsDoNotScale(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops objects at random under -race")
	}
	var allocs [2]float64
	var flagged [2]int
	for i, n := range allocSizes {
		rep := syntheticReport(n)
		res := PoolingFromReport("c", rep, adnet.SellerRegistry{}, DefaultMaxGroupSpan)
		if len(res.PooledSellers) == 0 {
			t.Fatalf("synthetic report of %d rows flags no pool seller", n)
		}
		flagged[i] = len(res.PooledSellers)
		allocs[i] = testing.AllocsPerRun(20, func() {
			PoolingFromReport("c", rep, adnet.SellerRegistry{}, DefaultMaxGroupSpan)
		})
	}
	checkAllocScaling(t, "PoolingFromReport", allocs, flagged)
}

func TestOwnerGroupOfAllocationFree(t *testing.T) {
	// Labels pinned from the fmt.Sprintf("owner-%03d", fnv32a(domain +
	// "/owner") % 512) definition the table replaced.
	for domain, want := range map[string]string{
		"":                 "owner-417",
		"example.com":      "owner-046",
		"news.example":     "owner-094",
		"pub00042.example": "owner-422",
		"stacked.example":  "owner-326",
	} {
		if got := adnet.OwnerGroupOf(domain); got != want {
			t.Errorf("OwnerGroupOf(%q) = %q, want %q", domain, got, want)
		}
	}
	if raceEnabled {
		return
	}
	if n := testing.AllocsPerRun(100, func() { adnet.OwnerGroupOf("pub00042.example") }); n != 0 {
		t.Errorf("OwnerGroupOf: %.0f allocs per call, want 0", n)
	}
}
