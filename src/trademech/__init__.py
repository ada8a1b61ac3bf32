"""Fixed-price bilateral trade: exact welfare of discrete instances and
price lotteries, factor-revealing programs that bound the best fixed
price's worst-case ratio, and mean-keyed price lotteries."""

__version__ = "0.1.0"
