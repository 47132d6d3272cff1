package checkpoint

// Exhaustive-field audit of the protocol agents' snapshot state (the
// counterpart of internal/sim/snapshot_fields_test.go for the engine).
// Every field of every Resumable protocol — plus the coordinator and the
// shared storage arbiter their state embeds — must have an entry saying
// how EncodeState/DecodeState handles it. A field added without snapshot
// handling fails here until it is wired up (or its exclusion documented).

import (
	"reflect"
	"testing"

	"checkpointsim/internal/storage"
)

func requireFields(t *testing.T, typ reflect.Type, handled map[string]string) {
	t.Helper()
	inStruct := make(map[string]bool, typ.NumField())
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		inStruct[name] = true
		if _, ok := handled[name]; !ok {
			t.Errorf("%s.%s has no snapshot-handling entry: wire it into "+
				"EncodeState/DecodeState (or document the exclusion) and record it here", typ, name)
		}
	}
	for name := range handled {
		if !inStruct[name] {
			t.Errorf("%s.%s is in the handling table but not in the struct — drop the stale entry", typ, name)
		}
	}
}

func TestSnapshotCoversCoordinatedFields(t *testing.T) {
	requireFields(t, reflect.TypeOf(Coordinated{}), map[string]string{
		"p":         "immutable parameters (its Store's mutable state rides in the agent section)",
		"stats":     "serialized (encodeStats)",
		"coord":     "rebuilt by setup; cross-round state serialized via coordinator.encodeState",
		"lastLine":  "serialized",
		"lineStart": "serialized",
		"rounds":    "serialized (encodeRounds)",
	})
}

func TestSnapshotCoversUncoordinatedFields(t *testing.T) {
	requireFields(t, reflect.TypeOf(Uncoordinated{}), map[string]string{
		"p":       "immutable parameters (Store state rides in the agent section)",
		"policy":  "immutable configuration",
		"log":     "immutable parameters",
		"inc":     "immutable parameters",
		"stats":   "serialized",
		"last":    "serialized",
		"busyAt":  "serialized",
		"nwrites": "serialized",
		"ctx":     "rebound in DecodeState",
	})
}

func TestSnapshotCoversHierarchicalFields(t *testing.T) {
	requireFields(t, reflect.TypeOf(Hierarchical{}), map[string]string{
		"p":           "immutable parameters (Store state rides in the agent section)",
		"clusterSize": "immutable configuration",
		"log":         "immutable parameters",
		"stats":       "serialized",
		"numRanks":    "recomputed by setup from the restoring engine",
		"coords":      "rebuilt by setup; per-cluster cross-round state serialized in order",
		"lastLine":    "serialized",
		"lineStart":   "serialized",
	})
}

func TestSnapshotCoversNonBlockingFields(t *testing.T) {
	requireFields(t, reflect.TypeOf(NonBlockingCoordinated{}), map[string]string{
		"p":             "immutable parameters (Store state rides in the agent section)",
		"stats":         "serialized",
		"ctx":           "rebound in DecodeState (setup)",
		"active":        "must be false at a safe boundary (Quiesced); EncodeState panics otherwise",
		"tickTime":      "per-round state, live only while active",
		"donesLeft":     "per-round state, reallocated by setup",
		"pendingBusy":   "per-round state, reallocated by setup",
		"committedBusy": "serialized",
		"lastLine":      "serialized",
	})
}

func TestSnapshotCoversCICFields(t *testing.T) {
	requireFields(t, reflect.TypeOf(CIC{}), map[string]string{
		"p":      "immutable parameters (Store state rides in the agent section)",
		"lag":    "immutable configuration",
		"policy": "immutable configuration",
		"stats":  "serialized",
		"ctx":    "rebound in DecodeState",
		"idx":    "serialized",
		"last":   "serialized",
		"busyAt": "serialized",
		"queues": "serialized in sorted channel order (map iteration must not leak into bytes)",
	})
}

func TestSnapshotCoversPartnerFields(t *testing.T) {
	requireFields(t, reflect.TypeOf(Partner{}), map[string]string{
		"p":         "immutable parameters (Store state rides in the agent section)",
		"stats":     "serialized",
		"ctx":       "rebound in DecodeState",
		"last":      "serialized",
		"busyAt":    "serialized",
		"shipped":   "serialized",
		"transfers": "serialized",
	})
}

func TestSnapshotCoversReplicationFields(t *testing.T) {
	requireFields(t, reflect.TypeOf(Replication{}), map[string]string{
		"p":        "immutable parameters",
		"stats":    "serialized",
		"ctx":      "rebound in DecodeState",
		"app":      "recomputed in DecodeState (pure function of the configuration)",
		"nextBeat": "serialized",
	})
}

func TestSnapshotCoversTwoLevelFields(t *testing.T) {
	requireFields(t, reflect.TypeOf(TwoLevel{}), map[string]string{
		"p":            "immutable parameters (Store state rides in the agent section)",
		"stats":        "serialized",
		"ctx":          "rebound in DecodeState (setup)",
		"coord":        "rebuilt by setup; cross-round state serialized via coordinator.encodeState",
		"localLast":    "serialized",
		"localBusyAt":  "serialized",
		"globalLast":   "serialized",
		"globalBusyAt": "serialized",
		"localWrites":  "serialized",
		"globalWrites": "serialized",
	})
}

// TestSnapshotCoversCoordinatorFields: the shared round engine. Per-round
// fields are live only while a round is active, and snapshots require
// !active (Quiesced), so only the committed line survives serialization.
func TestSnapshotCoversCoordinatorFields(t *testing.T) {
	requireFields(t, reflect.TypeOf(coordinator{}), map[string]string{
		"ctx":           "rebound when the owning protocol's setup rebuilds the coordinator",
		"p":             "immutable parameters",
		"members":       "rebuilt by the owning protocol's setup",
		"stats":         "points into the owning protocol's serialized Stats",
		"onWrite":       "re-wired by setup",
		"onRound":       "re-wired by setup",
		"arm":           "re-wired by setup",
		"active":        "must be false at a safe boundary; encodeState panics otherwise",
		"tickTime":      "per-round state, live only while active",
		"pendingDelay":  "per-round state, live only while active",
		"acksLeft":      "per-round state, live only while active",
		"donesLeft":     "per-round state, live only while active",
		"release":       "per-round closures, live only while active",
		"pendingBusy":   "per-round state, live only while active",
		"committedBusy": "serialized (the committed recovery line)",
	})
}

func TestSnapshotCoversStatsFields(t *testing.T) {
	requireFields(t, reflect.TypeOf(Stats{}), map[string]string{
		"Rounds":           "serialized (encodeStats)",
		"Writes":           "serialized (encodeStats)",
		"CoordDelay":       "serialized (encodeStats)",
		"RoundSpan":        "serialized (encodeStats)",
		"LoggedMessages":   "serialized (encodeStats)",
		"LoggedBytes":      "serialized (encodeStats)",
		"LogPenalty":       "serialized (encodeStats)",
		"Forced":           "serialized (encodeStats)",
		"MirroredMessages": "serialized (encodeStats)",
		"MirroredBytes":    "serialized (encodeStats)",
		"Heartbeats":       "serialized (encodeStats)",
		"Takeovers":        "serialized (encodeStats)",
	})
}

// TestSnapshotCoversStorageFields: the shared arbiter rides inside its
// owning protocol's agent section; in-flight writes carry closures and
// block the boundary (Store.Quiesced), so only durable counters travel.
func TestSnapshotCoversStorageFields(t *testing.T) {
	requireFields(t, reflect.TypeOf(storage.Store{}), map[string]string{
		"p":           "immutable parameters",
		"sched":       "rebound in RestoreState",
		"writes":      "must be empty at a safe boundary (Quiesced); EncodeState panics otherwise",
		"nodeCount":   "membership cache, empty at quiescence; rebuilt as writes join",
		"globalCount": "membership cache, zero at quiescence",
		"lastAt":      "reset to the restoring engine's now in RestoreState",
		"gen":         "serialized (invalidates superseded completion timers)",
		"stats":       "serialized field-by-field in EncodeState",
	})
	// The write struct itself never serializes — it always carries the
	// drained closure — but pin its shape so a new field prompts a fresh
	// look at the quiescence argument.
	wr, ok := reflect.TypeOf(storage.Store{}).FieldByName("writes")
	if !ok {
		t.Fatal("storage.Store lost its writes field")
	}
	requireFields(t, wr.Type.Elem().Elem(), map[string]string{
		"rank":      "never serialized: writes block the snapshot boundary",
		"node":      "never serialized: writes block the snapshot boundary",
		"tier":      "never serialized: writes block the snapshot boundary",
		"remaining": "never serialized: writes block the snapshot boundary",
		"bytes":     "never serialized: writes block the snapshot boundary",
		"start":     "never serialized: writes block the snapshot boundary",
		"drained":   "completion closure — the reason writes block the boundary",
	})
}
