module github.com/dht-sampling/randompeer/bench

go 1.22

require github.com/dht-sampling/randompeer v0.0.0

replace github.com/dht-sampling/randompeer => ../
