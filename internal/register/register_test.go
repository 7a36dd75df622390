package register

import "testing"

func TestTimestampOrdering(t *testing.T) {
	t.Parallel()
	tests := []struct {
		a, b Timestamp
		want bool
	}{
		{Timestamp{1, 0}, Timestamp{2, 0}, true},
		{Timestamp{2, 0}, Timestamp{1, 5}, false},
		{Timestamp{3, 1}, Timestamp{3, 2}, true},
		{Timestamp{3, 2}, Timestamp{3, 2}, false},
	}
	for _, tt := range tests {
		if got := tt.a.Less(tt.b); got != tt.want {
			t.Errorf("%v.Less(%v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
	if got := (Timestamp{4, 2}).String(); got != "(4,p3)" {
		t.Errorf("String = %q", got)
	}
}
