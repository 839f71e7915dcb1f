package audit

import (
	"cmp"
	"slices"
	"strings"

	"adaudit/internal/adnet"
)

// DefaultMaxGroupSpan is K, the widest owner-group span a non-exchange
// seller can have before the pooling detector flags it. Legitimate
// structures stay narrow: a direct account spans one publisher, an
// owner account spans one group, and disclosed exchanges are exempt —
// so any honest seller spans exactly one group.
const DefaultMaxGroupSpan = 3

// PooledSeller is one flagged seller ID with its co-occurrence
// footprint.
type PooledSeller struct {
	SellerID string
	// Publishers and OwnerGroups count the distinct report publishers
	// (and their distinct owner groups) whose inventory the seller
	// booked.
	Publishers  int
	OwnerGroups int
	Impressions int64
}

// PoolingResult is the dark-pooling detector (Vekaria et al., arXiv
// 2210.06654): seller IDs whose publisher set spans more than K
// unrelated owner groups. One account reselling inventory across many
// unrelated publisher groups is pooled inventory, whatever the rows
// call it.
type PoolingResult struct {
	CampaignID string
	// SellersChecked counts distinct attributed, non-exchange sellers;
	// MaxGroupSpan is the widest span observed among them (diagnostic:
	// clean supply chains sit at 1); GroupLimit is the K applied.
	SellersChecked int
	MaxGroupSpan   int
	GroupLimit     int
	// PooledSellers lists the sellers spanning more than K groups,
	// widest span first.
	PooledSellers []PooledSeller
}

// Pooling runs the dark-pooling detector for one campaign's vendor
// report with the default K.
func (a *Auditor) Pooling(campaignID string, rep *adnet.VendorReport) PoolingResult {
	return PoolingFromReport(campaignID, rep, a.sellers(), DefaultMaxGroupSpan)
}

// PoolingFromReport materializes the pooling detector from a vendor
// report and a directory — pure, shared verbatim by the batch auditor
// and the streaming engine. A nil report yields the empty result.
//
// The distinct (seller, owner group) and (seller, publisher) pairs are
// counted by sorting one recycled slice of the attributed rows by
// seller, group and publisher: each seller's rows are then one run,
// and within it a new group or a new publisher starts wherever the
// key changes. A publisher has one owner group, so a publisher never
// recurs under a second group of the same seller.
func PoolingFromReport(campaignID string, rep *adnet.VendorReport, dir SellerDirectory, maxGroups int) PoolingResult {
	res := PoolingResult{CampaignID: campaignID, GroupLimit: maxGroups}
	if rep == nil {
		return res
	}
	rows := rowScratch.get(len(rep.Rows))
	defer rowScratch.put(rows)
	for _, row := range rep.Rows {
		if row.SellerID == "" || dir.KnownExchange(row.SellerID) {
			continue
		}
		rows = append(rows, sellerRow{row.SellerID, dir.OwnerGroup(row.Publisher), row.Publisher, row.Impressions})
	}
	slices.SortFunc(rows, func(a, b sellerRow) int {
		if c := strings.Compare(a.seller, b.seller); c != 0 {
			return c
		}
		if c := strings.Compare(a.group, b.group); c != 0 {
			return c
		}
		return strings.Compare(a.pub, b.pub)
	})
	for i := 0; i < len(rows); {
		f := PooledSeller{SellerID: rows[i].seller}
		j := i
		for ; j < len(rows) && rows[j].seller == f.SellerID; j++ {
			if j == i || rows[j].group != rows[j-1].group {
				f.OwnerGroups++
				f.Publishers++
			} else if rows[j].pub != rows[j-1].pub {
				f.Publishers++
			}
			f.Impressions += rows[j].imps
		}
		i = j
		res.SellersChecked++
		res.MaxGroupSpan = max(res.MaxGroupSpan, f.OwnerGroups)
		if f.OwnerGroups > maxGroups {
			res.PooledSellers = append(res.PooledSellers, f)
		}
	}
	slices.SortFunc(res.PooledSellers, func(a, b PooledSeller) int {
		if a.OwnerGroups != b.OwnerGroups {
			return cmp.Compare(b.OwnerGroups, a.OwnerGroups)
		}
		if a.Impressions != b.Impressions {
			return cmp.Compare(b.Impressions, a.Impressions)
		}
		return strings.Compare(a.SellerID, b.SellerID)
	})
	return res
}

// sellerRow is one attributed, non-exchange report row.
type sellerRow struct {
	seller, group, pub string
	imps               int64
}
