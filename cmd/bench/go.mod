module anomalyx/cmd/bench

go 1.24

require anomalyx v0.0.0

replace anomalyx => ../..
