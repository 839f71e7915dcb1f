// Package shardmerge reconstructs a single-store audit view from N
// collector shards. Each shard runs its own store + WAL + change feed +
// streamaudit engine and serves its incremental state as a
// streamaudit.Export (/api/live/export); Merge unions those exports —
// in shard order — into one combined Export whose materialised report
// (streamaudit.NewStatic + Engine.Report) is reflect.DeepEqual to a
// single-store FullAudit over the concatenation of the shards' data.
//
// Shard order is load-bearing for bit-stability, not correctness of
// counts: per-campaign slot-indexed slices (exposure samples,
// visibility signals) concatenate in shard order, so the one
// order-sensitive statistic in the report — stats.Summarize's float
// mean, summed in element order — sees the samples in exactly the
// insertion order of a reference store built by concatenating the
// shards' datasets in the same order. Everything else merges by sum,
// union, OR or min/max, all order-insensitive. The behavioral
// dictionaries (users, publishers) are local to each export; the merge
// appends a shard's new keys to the merged dictionaries and remaps the
// shard's per-slot ids through them.
//
// The merged Seq is the sum of shard Seqs: a monotone progress
// indicator for staleness displays, not a feed position.
package shardmerge

import "adaudit/internal/streamaudit"

// Merge unions per-shard exports in shard order into one combined
// export. Nil shards (a shard that failed to export) are skipped;
// callers that need all-or-nothing semantics check before calling.
// Every other shard must pass streamaudit.Export.Validate: if one does
// not, Merge returns nil, which streamaudit.NewStatic rejects.
// Client.FetchMerged validates each shard as it decodes it, so its
// error names the malformed shard.
func Merge(shards []*streamaudit.Export) *streamaudit.Export {
	out := &streamaudit.Export{
		Campaigns: map[string]*streamaudit.CampaignExport{},
	}
	for _, sh := range shards {
		if sh == nil {
			continue
		}
		if sh.Validate() != nil {
			return nil
		}
		out.Seq += sh.Seq
		for id, ce := range sh.Campaigns {
			mergeCampaign(out, id, ce)
		}
	}
	return out
}

// mergeCampaign folds one shard's (validated) view of one campaign
// into the accumulating merged export. The behavioral layout appends
// slot by slot, remapping the shard's dictionary ids to the merged
// dictionaries' (audit.BehaviorState.Append).
func mergeCampaign(out *streamaudit.Export, id string, ce *streamaudit.CampaignExport) {
	mc := out.Campaigns[id]
	if mc == nil {
		mc = &streamaudit.CampaignExport{}
		out.Campaigns[id] = mc
	}

	mc.PubImps = addMap(mc.PubImps, ce.PubImps)
	mc.Clicks += ce.Clicks
	mc.Conversions += ce.Conversions
	if !ce.FirstSeen.IsZero() && (mc.FirstSeen.IsZero() || ce.FirstSeen.Before(mc.FirstSeen)) {
		mc.FirstSeen = ce.FirstSeen
	}
	if ce.LastSeen.After(mc.LastSeen) {
		mc.LastSeen = ce.LastSeen
	}

	mc.ImpRanks = append(mc.ImpRanks, ce.ImpRanks...)
	mc.UnknownMeta += ce.UnknownMeta

	mc.ViewableUB += ce.ViewableUB
	mc.Measured += ce.Measured
	mc.MRCViewable += ce.MRCViewable

	mc.DCImps += ce.DCImps
	mc.ByVerdict = addMap(mc.ByVerdict, ce.ByVerdict)
	mc.IPSeen = orMap(mc.IPSeen, ce.IPSeen)
	mc.PubSeen = orMap(mc.PubSeen, ce.PubSeen)
	mc.DCPerPub = addMap(mc.DCPerPub, ce.DCPerPub)

	mc.BehaviorState.Append(&ce.BehaviorState)
}

func addMap(dst, src map[string]int) map[string]int {
	if len(src) == 0 {
		return dst
	}
	if dst == nil {
		dst = make(map[string]int, len(src))
	}
	for k, v := range src {
		dst[k] += v
	}
	return dst
}

func orMap(dst, src map[string]bool) map[string]bool {
	if len(src) == 0 {
		return dst
	}
	if dst == nil {
		dst = make(map[string]bool, len(src))
	}
	for k, v := range src {
		dst[k] = dst[k] || v
	}
	return dst
}
