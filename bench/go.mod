module amrtools/bench

go 1.23

require amrtools v0.0.0

replace amrtools => ../
