module fluidicl/bench

go 1.22

require fluidicl v0.0.0

replace fluidicl => ../
