package dht_test

import (
	"testing"

	"github.com/dht-sampling/randompeer/internal/dht"
	"github.com/dht-sampling/randompeer/internal/dht/dhttest"
	"github.com/dht-sampling/randompeer/internal/ring"
)

func TestOracleConformance(t *testing.T) {
	t.Parallel()
	dhttest.Run(t, "oracle", func(points []ring.Point) (dht.DHT, error) {
		r, err := ring.New(points)
		if err != nil {
			return nil, err
		}
		return dht.NewOracle(r), nil
	}, dhttest.Pieces)
}
