package xbench

import (
	"reflect"
	"testing"

	"repro/internal/service"
)

// notSummed lists the service.Counters counters addCounters leaves
// alone, each with the reason a sum across fleet members would
// mislead. Every other counter must be summed.
var notSummed = map[string]string{
	"InFlight":                      "instantaneous slot count, zero on every member once the storm drains",
	"CacheCounters.Epoch":           "invalidation version every member shares, not a count",
	"Durable.Counters.Epoch":        "persisted invalidation version, not a count",
	"RouterCounters.UnhealthyPeers": "each member's view of the same peers: a sum counts one dead peer once per observer",
	"Durable.Counters.DiskBytes":    "residency of one member's own directory, not traffic",
	"Durable.Counters.LiveRecords":  "residency of one member's own directory, not traffic",
	"Durable.Counters.Segments":     "residency of one member's own directory, not traffic",
}

// counterFields calls fn with the dotted path and value of every int64
// field reachable from v through struct fields. Flags and labels (bool,
// string) are skipped; any other kind fails the test, so a counter of a
// new kind cannot slip past unclassified.
func counterFields(t *testing.T, prefix string, v reflect.Value, fn func(path string, f reflect.Value)) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f, path := v.Field(i), prefix+v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Struct:
			counterFields(t, path+".", f, fn)
		case reflect.Int64:
			fn(path, f)
		case reflect.Bool, reflect.String:
		default:
			t.Fatalf("%s: %s field is neither an int64 counter nor a flag or label", path, f.Kind())
		}
	}
}

// TestAddCountersCoversEveryField sets every counter of two Counters
// values to 1 and requires addCounters to leave 2 in each, except the
// gauges in notSummed, which must stay untouched. A counter added to
// service.Counters (or to a struct nested in it) fails here until it is
// summed or listed.
func TestAddCountersCoversEveryField(t *testing.T) {
	var dst, c service.Counters
	for _, x := range []*service.Counters{&dst, &c} {
		counterFields(t, "", reflect.ValueOf(x).Elem(), func(_ string, f reflect.Value) { f.SetInt(1) })
	}
	addCounters(&dst, c)

	seen := map[string]bool{}
	counterFields(t, "", reflect.ValueOf(dst), func(path string, f reflect.Value) {
		seen[path] = true
		want := int64(2)
		if _, gauge := notSummed[path]; gauge {
			want = 1
		}
		if got := f.Int(); got != want {
			t.Errorf("%s = %d after summing two 1s, want %d", path, got, want)
		}
	})
	for path := range notSummed {
		if !seen[path] {
			t.Errorf("notSummed lists %s, which is not a Counters counter", path)
		}
	}
}
