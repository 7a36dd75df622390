package metrics

import "testing"

func TestCountersBasics(t *testing.T) {
	t.Parallel()
	var c Counters
	c.AddMsgsSent(7)
	c.AddMsgsDelivered(5)
	c.AddBroadcast()
	c.AddDecideMsgs(2)
	c.AddConsInvocations(3)
	c.AddCoinFlips(1)
	c.ObserveRound(4)
	c.ObserveRound(2)

	s := c.Read()
	if s.MsgsSent != 7 || s.MsgsDelivered != 5 || s.Broadcasts != 1 ||
		s.DecideMsgs != 2 || s.ConsInvocations != 3 || s.CoinFlips != 1 {
		t.Errorf("snapshot = %+v", s)
	}
	if s.RoundsTotal != 2 {
		t.Errorf("RoundsTotal = %d, want 2", s.RoundsTotal)
	}
	if s.MaxRound != 4 {
		t.Errorf("MaxRound = %d, want 4", s.MaxRound)
	}
}

func TestObserveRoundMaxMonotone(t *testing.T) {
	t.Parallel()
	var c Counters
	for _, r := range []int64{3, 1, 5, 2, 5, 4} {
		c.ObserveRound(r)
	}
	if got := c.Read().MaxRound; got != 5 {
		t.Errorf("MaxRound = %d, want 5", got)
	}
}
